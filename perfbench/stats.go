package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the tail percentile.
const tailBeyond = 10

// median returns the middle of xs, averaging the two middle values of an
// even count; NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that keeps at least
// tailBeyond samples above it: the (n-tailBeyond)-th smallest sample, at
// percentile 100·(n-tailBeyond)/n. It fails below tailBeyond+1 samples,
// where no such percentile exists.
func tail(xs []float64) (value, pct float64, err error) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, fmt.Errorf("tail needs more than %d samples, have %d", tailBeyond, n)
	}
	s := sorted(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
