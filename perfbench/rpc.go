package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// rpcClient speaks the daemon's newline-delimited JSON-RPC 2.0 over one
// connection, one call at a time. Notifications (frames without an id)
// that arrive while a call waits for its reply go to notify, so a
// streaming subscription never confuses the reply matching.
type rpcClient struct {
	r      *bufio.Reader
	w      io.Writer
	nextID int
	notify func(method string, params json.RawMessage)
}

func newRPCClient(rw io.ReadWriter, notify func(string, json.RawMessage)) *rpcClient {
	return &rpcClient{r: bufio.NewReaderSize(rw, 64<<10), w: rw, notify: notify}
}

type rpcRequest struct {
	JSONRPC string `json:"jsonrpc"`
	ID      int    `json:"id"`
	Method  string `json:"method"`
	Params  any    `json:"params,omitempty"`
}

// rpcFrame is any frame the server sends: a reply carries an id, a
// notification a method.
type rpcFrame struct {
	ID     json.RawMessage `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params"`
	Result json.RawMessage `json:"result"`
	Error  *struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// call sends one request and returns the raw result of its reply.
func (c *rpcClient) call(method string, params any) (json.RawMessage, error) {
	c.nextID++
	id := c.nextID
	frame, err := json.Marshal(rpcRequest{JSONRPC: "2.0", ID: id, Method: method, Params: params})
	if err != nil {
		return nil, fmt.Errorf("rpc %s: %w", method, err)
	}
	if _, err := c.w.Write(append(frame, '\n')); err != nil {
		return nil, fmt.Errorf("rpc %s: %w", method, err)
	}
	want := strconv.Itoa(id)
	for {
		line, err := c.r.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("rpc %s: reading reply: %w", method, err)
		}
		var f rpcFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, fmt.Errorf("rpc %s: undecodable frame: %w", method, err)
		}
		if len(f.ID) == 0 && f.Method != "" {
			if c.notify != nil {
				c.notify(f.Method, f.Params)
			}
			continue
		}
		if string(f.ID) != want {
			return nil, fmt.Errorf("rpc %s: reply id %s, want %s", method, f.ID, want)
		}
		if f.Error != nil {
			return nil, fmt.Errorf("rpc %s: error %d: %s", method, f.Error.Code, f.Error.Message)
		}
		return f.Result, nil
	}
}
