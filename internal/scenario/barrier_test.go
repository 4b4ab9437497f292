package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"sbr6/internal/trace"
)

// oracleCounters merges the graveyard and every live node's sink afresh,
// as every barrier read did before Step kept its merge for them.
func oracleCounters(lv *Live) map[string]float64 {
	m := trace.NewMetrics()
	m.Merge(lv.graveyard)
	for _, n := range lv.sc.Nodes {
		if !n.Dead() {
			m.Merge(n.Metrics())
		}
	}
	out := make(map[string]float64, 64)
	for _, name := range m.CounterNames() {
		out[name] = m.Get(name)
	}
	return out
}

// oracleDelta is a window report's counters from two fresh merges: the
// nonzero changes from prev to cur.
func oracleDelta(prev, cur map[string]float64) map[string]float64 {
	delta := make(map[string]float64)
	for name, v := range cur {
		if d := v - prev[name]; d != 0 {
			delta[name] = d
		}
	}
	return delta
}

// oracleDigest is Digest as it hashed before the barrier's merge: a fresh
// merge sorted by name, each value written to the hash as it is read.
func oracleDigest(lv *Live) [sha256.Size]byte {
	sc := lv.sc
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) { binary.BigEndian.PutUint64(b[:], v); h.Write(b[:]) }
	putF := func(v float64) { put(math.Float64bits(v)) }
	put(uint64(lv.window))
	put(uint64(len(sc.Nodes)))
	for _, n := range sc.Nodes {
		flags := uint64(0)
		if n.Dead() {
			flags |= 1
		}
		if n.Configured() {
			flags |= 2
		}
		put(flags)
		addr := n.Addr()
		h.Write(addr[:])
	}
	counters := oracleCounters(lv)
	for _, name := range sortedKeys(counters) {
		h.Write([]byte(name))
		putF(counters[name])
	}
	for _, fi := range sortedKeys(sc.flowStats) {
		put(uint64(fi))
		put(uint64(sc.flowStats[fi].sent))
		put(uint64(sc.flowStats[fi].delivered))
	}
	inflight := make([]flowPacket, 0, len(sc.sent))
	for k := range sc.sent {
		inflight = append(inflight, k)
	}
	sort.Slice(inflight, func(a, b int) bool {
		if inflight[a].flow != inflight[b].flow {
			return inflight[a].flow < inflight[b].flow
		}
		return inflight[a].seq < inflight[b].seq
	})
	for _, k := range inflight {
		put(uint64(k.flow))
		put(uint64(k.seq))
		put(uint64(sc.sent[k]))
	}
	for _, name := range sortedKeys(lv.aggs) {
		a := lv.aggs[name]
		h.Write([]byte(name))
		put(uint64(a.Count))
		putF(a.Sum)
		putF(a.Min)
		putF(a.Max)
		for _, c := range a.Hist {
			put(uint64(c))
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// TestBarrierMergeOracle holds every read of the barrier's merge to a
// fresh merge of every sink, at every barrier of a churning session:
// before the first Step, after a Join and a Leave at one barrier, after
// each Step and inside the window callback. Result must equal the Result
// of a fresh merge and carry the fresh counters, each window report's
// counters must be the change between two fresh merges, and Digest must
// hash what the fresh merge gives.
func TestBarrierMergeOracle(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			lv := startLive(t, liveConfig(23, shards))
			check := func(where string) {
				t.Helper()
				res := lv.Result()
				got := make(map[string]float64)
				for _, name := range res.Metrics.CounterNames() {
					got[name] = res.Metrics.Get(name)
				}
				if want := oracleCounters(lv); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Result's counters differ from a fresh merge:\n got %v\nwant %v", where, got, want)
				}
				held := lv.barrierOK
				lv.barrierOK = false
				fresh := lv.Result()
				lv.barrierOK = held
				if !reflect.DeepEqual(res, fresh) {
					t.Fatalf("%s: Result differs from the Result of a fresh merge", where)
				}
				if lv.Digest() != oracleDigest(lv) {
					t.Fatalf("%s: Digest differs from the digest of a fresh merge", where)
				}
			}

			// want holds each window's expected counters by index. A report
			// is emitted a lag of windows after its own, so its entry is
			// in place by then.
			var want []map[string]float64
			prev := map[string]float64{}
			emitted := 0
			lv.OnWindow = func(w WindowReport) {
				check(fmt.Sprintf("inside the callback for window %d", w.Index))
				if !reflect.DeepEqual(w.Counters, want[w.Index]) {
					t.Fatalf("window %d's counters differ from two fresh merges:\n got %v\nwant %v", w.Index, w.Counters, want[w.Index])
				}
				emitted++
			}

			check("before the first Step")
			var joined []int
			const steps = 8
			for k := 0; k < steps; k++ {
				if k%2 == 1 { // a Join and a Leave at one barrier
					idx, err := lv.Join(fmt.Sprintf("j%d.example", k), nil)
					if err != nil {
						t.Fatal(err)
					}
					joined = append(joined, idx)
					if len(joined) > 1 {
						if err := lv.Leave(joined[len(joined)-2]); err != nil {
							t.Fatal(err)
						}
					}
					check(fmt.Sprintf("after a Join and a Leave at barrier %d", k))
				}
				lv.Step()
				cur := oracleCounters(lv)
				want = append(want, oracleDelta(prev, cur))
				prev = cur
				check(fmt.Sprintf("after Step %d", k+1))
			}
			if emitted != steps-lv.lag+1 {
				t.Fatalf("%d windows emitted over %d steps, want %d", emitted, steps, steps-lv.lag+1)
			}
		})
	}
}
