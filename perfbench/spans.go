package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a top-level span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the traced pass began
	End    float64 `json:"end_s"`
}

// tracer records spans in memory and runs each spanned call under a
// matching pprof label, which goroutines the call starts inherit. A nil
// tracer runs calls bare, so untraced runs pay nothing.
type tracer struct {
	t0    time.Time
	ctx   context.Context
	spans []span
	open  []int // indexes into spans of the enclosing spans
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ctx: context.Background()} }

func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	s := span{ID: len(t.spans) + 1, Name: name, Start: time.Since(t.t0).Seconds()}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, i)
	parent := t.ctx
	pprof.Do(parent, pprof.Labels("span", name), func(ctx context.Context) {
		t.ctx = ctx
		f()
	})
	t.ctx = parent
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Seconds()
}

// write saves the span list as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
