package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"sbr6"
)

func testScenario(t *testing.T, seed int64) *sbr6.Scenario {
	t.Helper()
	sc, err := sbr6.NewScenario(
		sbr6.WithSeed(seed),
		sbr6.WithNodes(14),
		sbr6.WithArea(600, 600),
		sbr6.WithFastTimers(),
		sbr6.WithWarmup(time.Second),
		sbr6.WithWindows(500*time.Millisecond),
		sbr6.WithCooldown(time.Second),
		sbr6.WithFlows(
			sbr6.Flow{From: 1, To: 2, Interval: 250 * time.Millisecond, Size: 64},
			sbr6.Flow{From: 3, To: 4, Interval: 400 * time.Millisecond, Size: 32},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// client is a minimal line-oriented JSON-RPC test client.
type client struct {
	t  *testing.T
	nc net.Conn
	r  *bufio.Reader
	id int
}

func dialServer(t *testing.T, addr net.Addr) *client {
	t.Helper()
	nc, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	r := bufio.NewReaderSize(nc, 1<<20)
	return &client{t: t, nc: nc, r: r}
}

// call issues one request and reads frames until its response arrives,
// returning the result bytes and any notifications read along the way.
func (c *client) call(method string, params any) (json.RawMessage, []Notification, *Error) {
	c.t.Helper()
	c.id++
	req := map[string]any{"jsonrpc": "2.0", "id": c.id, "method": method}
	if params != nil {
		req["params"] = params
	}
	frame, err := json.Marshal(req)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.nc.Write(append(frame, '\n')); err != nil {
		c.t.Fatalf("write %s: %v", method, err)
	}
	var notes []Notification
	for {
		line, err := c.r.ReadBytes('\n')
		if err != nil {
			c.t.Fatalf("read reply to %s: %v", method, err)
		}
		var probe struct {
			ID     json.RawMessage `json:"id"`
			Method string          `json:"method"`
			Result json.RawMessage `json:"result"`
			Error  *Error          `json:"error"`
			Params json.RawMessage `json:"params"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			c.t.Fatalf("bad frame %q: %v", line, err)
		}
		if probe.Method != "" { // notification
			var w sbr6.WindowReport
			if err := json.Unmarshal(probe.Params, &w); err != nil {
				c.t.Fatalf("bad window params: %v", err)
			}
			notes = append(notes, Notification{JSONRPC: "2.0", Method: probe.Method, Params: w})
			continue
		}
		return probe.Result, notes, probe.Error
	}
}

func (c *client) mustCall(method string, params any) (json.RawMessage, []Notification) {
	c.t.Helper()
	res, notes, rpcErr := c.call(method, params)
	if rpcErr != nil {
		c.t.Fatalf("%s: %v", method, rpcErr)
	}
	return res, notes
}

func startServer(t *testing.T, sess *sbr6.Session) (*Server, net.Addr, chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sess)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr(), errc
}

func TestDaemonEndToEnd(t *testing.T) {
	sess, err := sbr6.Serve(testScenario(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, addr, errc := startServer(t, sess)
	c := dialServer(t, addr)

	var info Info
	res, _ := c.mustCall("info", nil)
	if err := json.Unmarshal(res, &info); err != nil {
		t.Fatal(err)
	}
	if info.Seed != 3 || info.LiveNodes != 14 || info.Windows != 0 {
		t.Fatalf("unexpected info: %+v", info)
	}

	c.mustCall("stream", streamParams{On: true})
	_, notes := c.mustCall("advance", advanceParams{Windows: 5})
	if len(notes) == 0 {
		t.Fatal("no window notifications streamed during advance")
	}
	for i, n := range notes {
		w := n.Params.(sbr6.WindowReport)
		if w.Index != i {
			t.Fatalf("notification %d carries window index %d", i, w.Index)
		}
	}

	res, _ = c.mustCall("inject", injectParams{Name: "joiner.example"})
	var injected map[string]int
	if err := json.Unmarshal(res, &injected); err != nil {
		t.Fatal(err)
	}
	if injected["index"] != 14 {
		t.Fatalf("inject returned %v, want index 14", injected)
	}
	c.mustCall("eject", ejectParams{Index: injected["index"]})

	res, _ = c.mustCall("query", nil)
	var q sbr6.Result
	if err := json.Unmarshal(res, &q); err != nil {
		t.Fatal(err)
	}
	if q.Sent == 0 {
		t.Fatal("query reports no traffic after five windows")
	}

	// Error surface: unknown method, bad params, invalid frames.
	if _, _, rpcErr := c.call("explode", nil); rpcErr == nil || rpcErr.Code != CodeMethodNotFound {
		t.Fatalf("unknown method: got %v", rpcErr)
	}
	if _, _, rpcErr := c.call("advance", advanceParams{Windows: -1}); rpcErr == nil || rpcErr.Code != CodeInvalidParams {
		t.Fatalf("negative advance: got %v", rpcErr)
	}
	if _, _, rpcErr := c.call("eject", ejectParams{Index: 0}); rpcErr == nil || rpcErr.Code != CodeServer {
		t.Fatalf("ejecting the anchor: got %v", rpcErr)
	}

	// The snapshot after the inject and the eject, as the wire carries it.
	snap, _ := c.mustCall("snapshot", nil)

	c.mustCall("shutdown", nil)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve returned %v after shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}

	// Serve has returned, so the session is the test's again. The RPC
	// returns the bytes Session.Snapshot gives, byte for byte.
	local, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, local) {
		t.Fatalf("snapshot RPC differs from Session.Snapshot:\nrpc   %.200s\nlocal %.200s", snap, local)
	}

	// The wire snapshot resumes to an equivalent session.
	resumed, err := sbr6.Resume(snap)
	if err != nil {
		t.Fatalf("Resume of wire snapshot: %v", err)
	}
	if got, want := resumed.Windows(), sess.Windows(); got != want {
		t.Fatalf("resumed at window %d, want %d", got, want)
	}
	if !reflect.DeepEqual(resumed.Query(), sess.Query()) {
		t.Fatal("resumed session's cumulative result diverges from the served one")
	}
}

func TestDaemonTwoClients(t *testing.T) {
	sess, err := sbr6.Serve(testScenario(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, addr, _ := startServer(t, sess)
	a := dialServer(t, addr)
	b := dialServer(t, addr)

	// Only the subscribed client gets notifications, whoever advances.
	b.mustCall("stream", streamParams{On: true})
	_, notesA := a.mustCall("advance", advanceParams{Windows: 4})
	if len(notesA) != 0 {
		t.Fatalf("unsubscribed client got %d notifications", len(notesA))
	}
	// b's notifications are sitting in its read buffer; a follow-up call
	// flushes them out in order.
	_, notesB := b.mustCall("info", nil)
	if len(notesB) == 0 {
		t.Fatal("subscribed client got no notifications")
	}

	// Both clients observe the same barrier state.
	resA, _ := a.mustCall("info", nil)
	resB, _ := b.mustCall("info", nil)
	var ia, ib Info
	if err := json.Unmarshal(resA, &ia); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resB, &ib); err != nil {
		t.Fatal(err)
	}
	if ia != ib {
		t.Fatalf("clients disagree on barrier state: %+v vs %+v", ia, ib)
	}
}

func TestDaemonMalformedFrames(t *testing.T) {
	sess, err := sbr6.Serve(testScenario(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	_, addr, _ := startServer(t, sess)
	c := dialServer(t, addr)

	for _, frame := range []string{
		"not json",
		`{"jsonrpc":"1.0","id":1,"method":"info"}`,
		`{"jsonrpc":"2.0","id":1}`,
		`{"jsonrpc":"2.0","id":1,"method":"advance","params":{"bogus":true}}`,
	} {
		if _, err := fmt.Fprintf(c.nc, "%s\n", frame); err != nil {
			t.Fatal(err)
		}
		line, err := c.r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("no reply to %q: %v", frame, err)
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("unparseable reply %q: %v", line, err)
		}
		if resp.Error == nil {
			t.Fatalf("malformed frame %q was accepted: %s", frame, line)
		}
	}

	// The connection survives the garbage and still serves real calls.
	c.mustCall("info", nil)
}
