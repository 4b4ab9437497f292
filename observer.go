package sbr6

import (
	"fmt"
	"io"
	"sync"
)

// Observer receives streaming progress while a Runner executes. Window
// events arrive in window order within one run; runs of a batch interleave
// arbitrarily but calls are serialized, so implementations need no locking
// of their own. Callbacks must not block for long — they run on the worker
// goroutines.
type Observer interface {
	// RunStarted fires when a seed-replicate begins executing.
	RunStarted(seed int64)
	// Window streams one measured window as the replicate's session
	// finalizes it (WithWindows only).
	Window(seed int64, w WindowReport)
	// RunFinished delivers a replicate's final result.
	RunFinished(seed int64, r *Result)
}

// ObserverFuncs adapts plain functions to Observer; nil fields are
// ignored.
type ObserverFuncs struct {
	OnRunStarted  func(seed int64)
	OnWindow      func(seed int64, w WindowReport)
	OnRunFinished func(seed int64, r *Result)
}

// RunStarted implements Observer.
func (o ObserverFuncs) RunStarted(seed int64) {
	if o.OnRunStarted != nil {
		o.OnRunStarted(seed)
	}
}

// Window implements Observer.
func (o ObserverFuncs) Window(seed int64, w WindowReport) {
	if o.OnWindow != nil {
		o.OnWindow(seed, w)
	}
}

// RunFinished implements Observer.
func (o ObserverFuncs) RunFinished(seed int64, r *Result) {
	if o.OnRunFinished != nil {
		o.OnRunFinished(seed, r)
	}
}

// NewProgressObserver returns an Observer that writes one line per event
// to w — live progress for CLIs.
func NewProgressObserver(w io.Writer) Observer {
	return ObserverFuncs{
		OnRunStarted: func(seed int64) {
			fmt.Fprintf(w, "run seed=%d started\n", seed)
		},
		OnWindow: func(seed int64, win WindowReport) {
			fmt.Fprintf(w, "run seed=%d window @%s: %d/%d delivered (pdr=%.3f)\n",
				seed, win.Start, win.Delivered, win.Sent, win.PDR())
		},
		OnRunFinished: func(seed int64, r *Result) {
			fmt.Fprintf(w, "run seed=%d finished: %s\n", seed, r)
		},
	}
}

// syncObserver serializes observer callbacks across batch workers.
type syncObserver struct {
	mu  sync.Mutex
	obs Observer
}

func (s *syncObserver) RunStarted(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.RunStarted(seed)
}

func (s *syncObserver) Window(seed int64, w WindowReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.Window(seed, w)
}

func (s *syncObserver) RunFinished(seed int64, r *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.RunFinished(seed, r)
}
