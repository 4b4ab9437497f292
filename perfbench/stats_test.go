package main

import (
	"math"
	"testing"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort a copy
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		wantError bool
	}{
		{n: 0, wantError: true},
		{n: 10, wantError: true},
		{n: 11, value: 1, pct: 100.0 / 11},
		{n: 20, value: 10, pct: 50},
		{n: 100, value: 90, pct: 90},
		{n: 240, value: 230, pct: 100 * 230.0 / 240},
	} {
		xs := seq(tc.n)
		v, pct, err := tail(xs)
		if tc.wantError {
			if err == nil {
				t.Errorf("n=%d: tail succeeded, want an error", tc.n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, pct, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("n=%d: tail reordered its input", tc.n)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median = %v, want NaN", m)
	}
}
