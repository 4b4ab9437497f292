package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
)

// fakeDaemon answers each request on conn with the frames reply returns
// for it, after reading the request line.
func fakeDaemon(t *testing.T, conn net.Conn, reply func(id json.RawMessage) []string) {
	t.Helper()
	go func() {
		defer conn.Close()
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				return
			}
			var req struct{ ID json.RawMessage }
			if err := json.Unmarshal(line, &req); err != nil {
				t.Errorf("client sent an undecodable request %q: %v", line, err)
				return
			}
			for _, f := range reply(req.ID) {
				if _, err := conn.Write([]byte(f + "\n")); err != nil {
					return
				}
			}
		}
	}()
}

func TestRPCSkipsNotificationsWhileWaiting(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	fakeDaemon(t, server, func(id json.RawMessage) []string {
		return []string{
			`{"jsonrpc":"2.0","method":"window","params":{"index":1,"sent":4,"delivered":3}}`,
			`{"jsonrpc":"2.0","method":"window","params":{"index":2,"sent":4,"delivered":4}}`,
			fmt.Sprintf(`{"jsonrpc":"2.0","id":%s,"result":{"windows":2}}`, id),
		}
	})
	var got []int
	c := newRPCClient(client, func(method string, params json.RawMessage) {
		var w struct{ Index int }
		if method != "window" || json.Unmarshal(params, &w) != nil {
			t.Errorf("unexpected notification %s %s", method, params)
		}
		got = append(got, w.Index)
	})
	for call := 1; call <= 2; call++ {
		raw, err := c.call("advance", map[string]int{"windows": 1})
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		var res struct{ Windows int }
		if err := json.Unmarshal(raw, &res); err != nil || res.Windows != 2 {
			t.Fatalf("call %d: result %s, want windows 2", call, raw)
		}
	}
	if fmt.Sprint(got) != "[1 2 1 2]" {
		t.Errorf("notifications seen %v, want [1 2 1 2]", got)
	}
}

func TestRPCReportsErrorsAndForeignReplies(t *testing.T) {
	for _, tc := range []struct {
		name, frame, want string
	}{
		{"error reply", `{"jsonrpc":"2.0","id":%s,"error":{"code":-32000,"message":"no such node"}}`, "no such node"},
		{"wrong id", `{"jsonrpc":"2.0","id":999,"result":{}}`, "reply id 999"},
		{"garbage", `not json %s`, "undecodable frame"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			fakeDaemon(t, server, func(id json.RawMessage) []string {
				if strings.Contains(tc.frame, "%s") {
					return []string{fmt.Sprintf(tc.frame, id)}
				}
				return []string{tc.frame}
			})
			_, err := newRPCClient(client, nil).call("eject", map[string]int{"index": 7})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
