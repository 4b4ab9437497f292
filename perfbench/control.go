package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"sbr6"
	"sbr6/internal/daemon"
)

// control is how a run steers its session: directly through the Session
// API, or over the daemon's JSON-RPC protocol. Query returns the
// cumulative result as the JSON a daemon client would see, so both paths
// compare and digest the same bytes.
type control interface {
	advance() error
	inject(name string) (int, error)
	eject(idx int) error
	query() ([]byte, error)
	snapshot() ([]byte, error)
	// stop ends remote control; afterwards the session belongs to the
	// caller again.
	stop() error
}

// direct drives a Session in-process.
type direct struct{ sess *sbr6.Session }

func newDirect(sess *sbr6.Session, onWindow func(sbr6.WindowReport)) (*direct, error) {
	if err := sess.Stream(onWindow); err != nil {
		return nil, err
	}
	return &direct{sess: sess}, nil
}

func (d *direct) advance() error                  { return d.sess.Advance(1) }
func (d *direct) inject(name string) (int, error) { return d.sess.Inject(name) }
func (d *direct) eject(idx int) error             { return d.sess.Eject(idx) }
func (d *direct) snapshot() ([]byte, error)       { return d.sess.Snapshot() }
func (d *direct) stop() error                     { return d.sess.Stream(nil) }

func (d *direct) query() ([]byte, error) {
	res := d.sess.Query()
	if res == nil {
		return nil, sbr6.ErrSession
	}
	return json.Marshal(res)
}

// remote serves a Session from an in-process daemon on a unix socket and
// drives it over one client connection with window streaming on.
type remote struct {
	srv    *daemon.Server
	served chan error // Serve's return value
	nc     net.Conn
	c      *rpcClient
	sock   string
}

// newRemote starts the daemon with its socket in dir, which must be a
// short path.
func newRemote(sess *sbr6.Session, dir string, onWindow func(sbr6.WindowReport)) (*remote, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, fmt.Sprintf("d%d.sock", os.Getpid()))
	os.Remove(sock) // a stale socket from a killed run would block Listen
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	r := &remote{srv: daemon.New(sess), served: make(chan error, 1), sock: sock}
	go func() { r.served <- r.srv.Serve(l) }()
	nc, err := net.Dial("unix", sock)
	if err != nil {
		r.srv.Close()
		<-r.served
		return nil, err
	}
	r.nc = nc
	r.c = newRPCClient(nc, func(method string, params json.RawMessage) {
		if method != "window" {
			return
		}
		var w sbr6.WindowReport
		if json.Unmarshal(params, &w) == nil {
			onWindow(w)
		}
	})
	if _, err := r.c.call(daemon.MethodStream, map[string]bool{"on": true}); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (r *remote) advance() error {
	_, err := r.c.call(daemon.MethodAdvance, map[string]int{"windows": 1})
	return err
}

func (r *remote) inject(name string) (int, error) {
	raw, err := r.c.call(daemon.MethodInject, map[string]string{"name": name})
	if err != nil {
		return 0, err
	}
	var out struct{ Index int }
	if err := json.Unmarshal(raw, &out); err != nil {
		return 0, fmt.Errorf("inject reply: %w", err)
	}
	return out.Index, nil
}

func (r *remote) eject(idx int) error {
	_, err := r.c.call(daemon.MethodEject, map[string]int{"index": idx})
	return err
}

func (r *remote) query() ([]byte, error)    { return r.c.call(daemon.MethodQuery, nil) }
func (r *remote) snapshot() ([]byte, error) { return r.c.call(daemon.MethodSnapshot, nil) }

// stop closes the daemon and waits for its serve loop, the only goroutine
// that touches the session, to return. The server is closed in-process
// rather than by a shutdown RPC, whose reply races the connection
// teardown.
func (r *remote) stop() error {
	r.srv.Close()
	err := <-r.served
	r.nc.Close()
	os.Remove(r.sock)
	return err
}
