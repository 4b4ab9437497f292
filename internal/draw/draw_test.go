package draw

import (
	"encoding/binary"
	"slices"
	"testing"
)

// Distinct (seed, stream, node, counter) coordinates give distinct draws:
// every stream × nodes 0..20000 × counters 1..4, at two consecutive seeds.
// Two streams sharing a tag, or seed and node folding into one word (so
// that node i at seed s+1 is node i+1 at seed s), would repeat draws.
func TestDistinctCoordinatesDistinctDraws(t *testing.T) {
	const nodes, counters = 20001, 4
	streams := []Stream{Key, Protocol, Track, Placement, Churn, Radio, Boot, Audit}
	draws := make([]uint64, 0, 2*len(streams)*nodes*counters)
	for seed := int64(1); seed <= 2; seed++ {
		for _, s := range streams {
			for node := uint64(0); node < nodes; node++ {
				src := New(seed, s, node)
				for c := 0; c < counters; c++ {
					draws = append(draws, src.Uint64())
				}
			}
		}
	}
	slices.Sort(draws)
	for i := 1; i < len(draws); i++ {
		if draws[i] == draws[i-1] {
			t.Fatalf("draw %#x repeats: two coordinates share a draw", draws[i])
		}
	}
}

// A source's k-th draw is Mix(KeyOf(seed, stream, node), k), whichever
// method consumes it.
func TestSourceDrawsAreCounterHashes(t *testing.T) {
	src := New(7, Track, 3)
	key := KeyOf(7, Track, 3)
	for k := uint64(1); k <= 3; k++ {
		if got, want := src.Uint64(), Mix(key, k); got != want {
			t.Fatalf("draw %d = %#x, want Mix(key, %d) = %#x", k, got, k, want)
		}
	}
	if got, want := src.Float64(), float64(Mix(key, 4)>>11)/(1<<53); got != want {
		t.Fatalf("Float64 = %v, want %v", got, want)
	}
	if got, want := src.Int63n(1000), int64(Mix(key, 5)%1000); got != want {
		t.Fatalf("Int63n = %d, want %d", got, want)
	}
}

// Read returns the Uint64 draws concatenated, little-endian, and a
// partial last word still consumes its whole draw.
func TestReadConcatenatesDraws(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33} {
		buf := make([]byte, n)
		src, twin := New(5, Key, 9), New(5, Key, 9)
		if got, err := src.Read(buf); err != nil || got != n {
			t.Fatalf("Read(%d) = %d, %v", n, got, err)
		}
		var want []byte
		for len(want) < n {
			want = binary.LittleEndian.AppendUint64(want, twin.Uint64())
		}
		if string(buf) != string(want[:n]) {
			t.Fatalf("Read(%d) = %x, want the draws %x", n, buf, want[:n])
		}
		if src.Uint64() != twin.Uint64() {
			t.Fatalf("after Read(%d) the source is not at draw %d", n, (n+7)/8+1)
		}
	}
}

func TestFloat64AndInt63nRanges(t *testing.T) {
	src := New(1, Churn, 0)
	for i := 0; i < 1000; i++ {
		if f := src.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v outside [0, 1)", f)
		}
		if v := src.Int63n(3); v < 0 || v >= 3 {
			t.Fatalf("Int63n(3) = %d outside [0, 3)", v)
		}
	}
}
