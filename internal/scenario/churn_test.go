package scenario

import (
	"fmt"
	"runtime"
	"testing"

	"sbr6/internal/radio"
	"sbr6/internal/sim"
)

// onlyRegion returns the simulator and medium of a one-region scenario,
// which hold every node event and every port.
func onlyRegion(t *testing.T, sc *Scenario) (*sim.Simulator, *radio.Medium) {
	t.Helper()
	if r := sc.eng.Regions(); r != 1 {
		t.Fatalf("scenario runs on %d regions, want 1", r)
	}
	return sc.eng.NodeSim(0), sc.eng.NodeMedium(0)
}

// settle steps enough windows that every packet in flight when the last
// op was applied has either landed or been dropped and every finalized
// window has been emitted: the emission lag plus two windows of margin.
func settle(lv *Live) {
	for i := 0; i < lv.lag+2; i++ {
		lv.Step()
	}
}

// churnWave joins n nodes, lets them participate for one window, then
// ejects them all and settles; it returns the indexes that joined.
func churnWave(t *testing.T, lv *Live, n int) []int {
	t.Helper()
	joined := make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx, err := lv.Join("", nil)
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		joined = append(joined, idx)
	}
	lv.Step()
	for _, idx := range joined {
		if err := lv.Leave(idx); err != nil {
			t.Fatalf("Leave(%d): %v", idx, err)
		}
	}
	settle(lv)
	return joined
}

// TestChurnNoResidualState is the lifecycle conformance core: after a
// join/leave wave settles, a departed node must leave nothing behind —
// the radio grid drops its port and the event queue returns to the
// steady-state population. Repeated waves must land on exactly the same
// numbers, or some structure is leaking one entry per churned node.
func TestChurnNoResidualState(t *testing.T) {
	lv := startLive(t, liveConfig(11, 0))
	sc := lv.sc

	// First wave establishes the steady-state fingerprint; the sim is
	// deterministic, so later identically-shaped waves must reproduce it.
	rs, med := onlyRegion(t, sc)
	pending := func() int { return rs.Pending() }
	churnWave(t, lv, 5)
	wantLive := med.Live()
	wantPending := pending()
	if wantLive != 16 {
		t.Fatalf("grid occupancy %d after first wave, want the 16 built nodes", wantLive)
	}

	for wave := 2; wave <= 4; wave++ {
		joined := churnWave(t, lv, 5)
		if got := med.Live(); got != wantLive {
			t.Errorf("wave %d: grid occupancy %d, want %d — departed ports leaked", wave, got, wantLive)
		}
		if got := pending(); got != wantPending {
			t.Errorf("wave %d: %d pending events, want %d — departed timers leaked", wave, got, wantPending)
		}
		for _, idx := range joined {
			if !sc.Nodes[idx].Dead() {
				t.Errorf("wave %d: node %d not marked dead after Leave", wave, idx)
			}
		}
	}
	if got := lv.LiveNodes(); got != 16 {
		t.Errorf("LiveNodes = %d after all waves, want 16", got)
	}
}

// TestChurnPoolDrains ejects both flow sources and settles: with no
// senders left and the cooldown elapsed, every pooled frame buffer must
// be back in the pool — Live outstanding count exactly zero.
func TestChurnPoolDrains(t *testing.T) {
	lv := startLive(t, liveConfig(13, 0))
	sc := lv.sc
	lv.Step()
	for _, src := range []int{1, 3} {
		if err := lv.Leave(src); err != nil {
			t.Fatalf("Leave(%d): %v", src, err)
		}
	}
	settle(lv)
	_, med := onlyRegion(t, sc)
	if st := med.PoolStats(); st.Live != 0 {
		t.Errorf("pool holds %d outstanding buffers after the sources left and the cooldown drained: %+v", st.Live, st)
	}
}

// TestChurnMonotoneCounters streams windows through a join/leave storm
// and asserts every per-window counter delta is non-negative: the
// graveyard must bank a departing node's cumulative counters so merged
// totals never step backwards when a node leaves mid-window.
func TestChurnMonotoneCounters(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			lv := startLive(t, liveConfig(17, shards))
			violations := 0
			lv.OnWindow = func(w WindowReport) {
				for name, v := range w.Counters { //sbr6:allow maprange counter deltas are only checked for sign, order-independent
					if v < 0 {
						violations++
						t.Errorf("window %d: counter %q went backwards by %g", w.Index, name, -v)
					}
				}
				if w.Live <= 0 {
					t.Errorf("window %d reports %d live nodes", w.Index, w.Live)
				}
			}
			var joined []int
			for round := 0; round < 3; round++ {
				for i := 0; i < 3; i++ {
					idx, err := lv.Join("", nil)
					if err != nil {
						t.Fatalf("Join: %v", err)
					}
					joined = append(joined, idx)
				}
				lv.Step()
				for _, idx := range joined {
					if err := lv.Leave(idx); err != nil {
						t.Fatalf("Leave(%d): %v", idx, err)
					}
				}
				joined = joined[:0]
				lv.Step()
			}
			settle(lv)
			if violations > 0 {
				t.Fatalf("%d counter deltas went negative during the churn storm", violations)
			}
		})
	}
}

// TestChurnHeapSteady drives cumulative join churn and asserts the
// process heap reaches a steady state: once the first waves have paid
// for lazily-grown structures, later waves must not keep growing the
// live heap, or per-node residue is accumulating. The full acceptance
// run covers 50k cumulative joins; -short scales down.
func TestChurnHeapSteady(t *testing.T) {
	// Small waves keep the instantaneous network bounded (DAD floods
	// scale with the live population) while the joins accumulate.
	waves, perWave := 625, 80 // 50k cumulative joins
	if testing.Short() {
		waves, perWave = 6, 25
	}
	lv := startLive(t, liveConfig(19, 0))

	heapAfter := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var baseline uint64
	warmupWaves := waves / 5
	for wave := 0; wave < waves; wave++ {
		churnWave(t, lv, perWave)
		if wave == warmupWaves {
			baseline = heapAfter()
		}
	}
	final := heapAfter()

	// Index slots, the op journal and window aggregates grow O(joins) by
	// design but are tiny; allow a modest absolute allowance over the
	// post-warmup baseline and fail on anything resembling per-node
	// protocol state (routes, bindings, timers) being retained.
	joins := uint64((waves - warmupWaves - 1) * perWave)
	allowance := uint64(4<<20) + joins*2048
	if final > baseline+allowance {
		t.Fatalf("heap grew from %d to %d over %d churned joins (allowance %d): per-node state is leaking",
			baseline, final, joins, allowance)
	}
}
