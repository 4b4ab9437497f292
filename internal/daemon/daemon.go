// Package daemon hosts a live sbr6 Session behind a JSON-RPC 2.0 control
// plane: newline-delimited JSON frames over any net.Listener (TCP or a
// unix socket). The simulation stays single-threaded — every request is
// executed by one owner goroutine at a window barrier, so concurrent
// clients serialize cleanly and the run remains deterministic and
// snapshot-reproducible. Finalized measurement windows are pushed to
// subscribed connections as "window" notifications.
package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"sbr6"
)

// JSON-RPC 2.0 error codes (plus the implementation-defined server range).
const (
	CodeParse          = -32700
	CodeInvalidRequest = -32600
	CodeMethodNotFound = -32601
	CodeInvalidParams  = -32602
	CodeServer         = -32000
)

// Request is one decoded JSON-RPC 2.0 call frame.
type Request struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id,omitempty"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params,omitempty"`
}

// Response is one reply frame; exactly one of Result / Error is set.
type Response struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id,omitempty"`
	Result  any             `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
}

// Notification is one server-pushed frame (no ID, expects no reply).
type Notification struct {
	JSONRPC string `json:"jsonrpc"`
	Method  string `json:"method"`
	Params  any    `json:"params"`
}

// Error is the JSON-RPC error object.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("jsonrpc %d: %s", e.Code, e.Message) }

func errf(code int, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// DecodeRequest parses one line of the control stream into a Request,
// enforcing the protocol envelope. It is a pure function — the fuzz
// harness drives it with arbitrary bytes.
func DecodeRequest(line []byte) (Request, *Error) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Request{}, errf(CodeParse, "parse error: %v", err)
	}
	if req.JSONRPC != "2.0" {
		return Request{}, errf(CodeInvalidRequest, "jsonrpc must be %q", "2.0")
	}
	if req.Method == "" {
		return Request{}, errf(CodeInvalidRequest, "empty method")
	}
	return req, nil
}

// Typed parameter forms of the mutating methods.
type advanceParams struct {
	Windows int `json:"windows"`
}

type injectParams struct {
	Name string `json:"name"`
}

type ejectParams struct {
	Index int `json:"index"`
}

type streamParams struct {
	On bool `json:"on"`
}

// Methods in the order a client typically issues them.
const (
	MethodInfo     = "info"
	MethodAdvance  = "advance"
	MethodInject   = "inject"
	MethodEject    = "eject"
	MethodQuery    = "query"
	MethodStream   = "stream"
	MethodSnapshot = "snapshot"
	MethodShutdown = "shutdown"
)

// ParseParams validates a request's params against its method's schema
// and returns the typed form (nil for parameterless methods). Like
// DecodeRequest it is pure, so the fuzz harness covers it too.
func ParseParams(method string, raw json.RawMessage) (any, *Error) {
	strict := func(dst any) *Error {
		if len(raw) == 0 {
			return nil // all fields keep their zero values
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			return errf(CodeInvalidParams, "%s: %v", method, err)
		}
		return nil
	}
	switch method {
	case MethodInfo, MethodQuery, MethodSnapshot, MethodShutdown:
		return nil, nil
	case MethodAdvance:
		var p advanceParams
		if e := strict(&p); e != nil {
			return nil, e
		}
		if p.Windows < 0 {
			return nil, errf(CodeInvalidParams, "advance: negative window count %d", p.Windows)
		}
		return p, nil
	case MethodInject:
		var p injectParams
		if e := strict(&p); e != nil {
			return nil, e
		}
		return p, nil
	case MethodEject:
		var p ejectParams
		if e := strict(&p); e != nil {
			return nil, e
		}
		if p.Index < 0 {
			return nil, errf(CodeInvalidParams, "eject: negative node index %d", p.Index)
		}
		return p, nil
	case MethodStream:
		var p streamParams
		if e := strict(&p); e != nil {
			return nil, e
		}
		return p, nil
	default:
		return nil, errf(CodeMethodNotFound, "unknown method %q", method)
	}
}

// Info is the result of the info method: the session's barrier state.
type Info struct {
	Seed       int64 `json:"seed"`
	Configured int   `json:"configured"`
	Windows    int   `json:"windows"`
	LiveNodes  int   `json:"liveNodes"`
	NodeCount  int   `json:"nodeCount"`
	InFlight   int   `json:"inFlight"`
	NowNanos   int64 `json:"nowNanos"`
}

// maxFrame bounds one control-plane line. Snapshots of large sessions
// are the biggest legitimate frames; 64 MiB leaves ample headroom while
// still refusing an unbounded-memory stream.
const maxFrame = 64 << 20

// command is one raw request line handed from a connection reader to the
// owner goroutine; done closes once the response has been written.
type command struct {
	c    *conn
	line []byte
	done chan struct{}
}

type conn struct {
	nc        net.Conn
	streaming bool
}

// Server hosts one Session on one listener. Create with New, drive with
// Serve (which blocks until shutdown), stop with Close or the shutdown
// method.
type Server struct {
	sess *sbr6.Session

	mu       sync.Mutex
	listener net.Listener
	conns    map[*conn]struct{}
	closed   bool

	cmds chan command
	quit chan struct{}

	// stopping is set by the shutdown method; Serve closes the server
	// once the reply is written. Only the owner goroutine touches it.
	stopping bool

	closeOnce sync.Once
}

// New wraps a served session. The server takes over the session's Stream
// subscription for the lifetime of Serve.
func New(sess *sbr6.Session) *Server {
	return &Server{
		sess:  sess,
		conns: make(map[*conn]struct{}),
		cmds:  make(chan command),
		quit:  make(chan struct{}),
	}
}

// Serve accepts control connections on l and executes their requests
// against the session, one at a time, on the calling goroutine — the
// session never leaves it. Serve returns nil after a clean shutdown
// (Close or the shutdown method).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("daemon: server already closed")
	}
	s.listener = l
	s.mu.Unlock()

	if err := s.sess.Stream(s.pushWindow); err != nil {
		return fmt.Errorf("daemon: session not serving: %w", err)
	}
	go s.acceptLoop(l)

	for {
		select {
		case cmd := <-s.cmds:
			s.handle(cmd)
			close(cmd.done)
			if s.stopping {
				s.Close()
				return nil
			}
		case <-s.quit:
			return nil
		}
	}
}

// Close stops the server: the listener closes, every connection drops,
// and Serve returns. Safe to call from any goroutine, more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		l := s.listener
		conns := make([]*conn, 0, len(s.conns))
		for c := range s.conns { //sbr6:allow maprange teardown order does not matter
			conns = append(conns, c)
		}
		s.mu.Unlock()
		if l != nil {
			l.Close()
		}
		for _, c := range conns {
			c.nc.Close()
		}
		close(s.quit)
	})
	return nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		nc, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{nc: nc}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.readLoop(c)
	}
}

// readLoop forwards each line to the owner goroutine and waits for it to
// be answered before reading the next — one in-flight request per
// connection, so responses need no write coordination.
func (s *Server) readLoop(c *conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.nc.Close()
	}()
	sc := bufio.NewScanner(c.nc)
	sc.Buffer(make([]byte, 64<<10), maxFrame)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		if len(line) == 0 {
			continue
		}
		cmd := command{c: c, line: line, done: make(chan struct{})}
		select {
		case s.cmds <- cmd:
			<-cmd.done
		case <-s.quit:
			return
		}
	}
}

// pushWindow fans one finalized window out to the subscribed
// connections. It runs on the owner goroutine, inside an advance call.
func (s *Server) pushWindow(w sbr6.WindowReport) {
	n := Notification{JSONRPC: "2.0", Method: "window", Params: w}
	frame, err := json.Marshal(n)
	if err != nil {
		return
	}
	frame = append(frame, '\n')
	s.mu.Lock()
	subs := make([]*conn, 0, len(s.conns))
	for c := range s.conns { //sbr6:allow maprange push order across independent client conns is not observable state
		if c.streaming {
			subs = append(subs, c)
		}
	}
	s.mu.Unlock()
	for _, c := range subs {
		c.nc.Write(frame) //nolint:errcheck // a dying subscriber is dropped by its own read loop
	}
}

// handle executes one raw line and writes the response frame.
func (s *Server) handle(cmd command) {
	req, rpcErr := DecodeRequest(cmd.line)
	var result any
	if rpcErr == nil {
		result, rpcErr = s.dispatch(cmd.c, req)
	}
	resp := Response{JSONRPC: "2.0", ID: req.ID}
	if rpcErr != nil {
		resp.Error = rpcErr
	} else {
		resp.Result = result
	}
	frame, err := json.Marshal(resp)
	if err != nil {
		frame, _ = json.Marshal(Response{JSONRPC: "2.0", ID: req.ID,
			Error: errf(CodeServer, "unencodable result: %v", err)})
	}
	cmd.c.nc.Write(append(frame, '\n')) //nolint:errcheck // reader loop notices the dead conn
}

// dispatch runs one validated request against the session.
func (s *Server) dispatch(c *conn, req Request) (any, *Error) {
	params, rpcErr := ParseParams(req.Method, req.Params)
	if rpcErr != nil {
		return nil, rpcErr
	}
	switch req.Method {
	case MethodInfo:
		return Info{
			Seed:       s.sess.Seed(),
			Configured: s.sess.Configured(),
			Windows:    s.sess.Windows(),
			LiveNodes:  s.sess.LiveNodes(),
			NodeCount:  s.sess.NodeCount(),
			InFlight:   s.sess.InFlight(),
			NowNanos:   int64(s.sess.Now()),
		}, nil
	case MethodAdvance:
		p := params.(advanceParams)
		if err := s.sess.Advance(p.Windows); err != nil {
			return nil, errf(CodeServer, "%v", err)
		}
		return map[string]int{"windows": s.sess.Windows()}, nil
	case MethodInject:
		p := params.(injectParams)
		idx, err := s.sess.Inject(p.Name)
		if err != nil {
			return nil, errf(CodeServer, "%v", err)
		}
		return map[string]int{"index": idx}, nil
	case MethodEject:
		p := params.(ejectParams)
		if err := s.sess.Eject(p.Index); err != nil {
			return nil, errf(CodeServer, "%v", err)
		}
		return map[string]int{"liveNodes": s.sess.LiveNodes()}, nil
	case MethodQuery:
		res := s.sess.Query()
		if res == nil {
			return nil, errf(CodeServer, "session not serving")
		}
		return res, nil
	case MethodStream:
		p := params.(streamParams)
		c.streaming = p.On
		return map[string]bool{"streaming": p.On}, nil
	case MethodSnapshot:
		snap, err := s.sess.Snapshot()
		if err != nil {
			return nil, errf(CodeServer, "%v", err)
		}
		return json.RawMessage(snap), nil
	case MethodShutdown:
		// Closing drops every connection, this one included, so Serve
		// closes only after handle has written the reply.
		s.stopping = true
		return map[string]bool{"ok": true}, nil
	default:
		return nil, errf(CodeMethodNotFound, "unknown method %q", req.Method)
	}
}
