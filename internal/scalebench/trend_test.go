package scalebench

import (
	"strings"
	"testing"
)

// Canned fixtures: a two-commit history measured on wildly different
// hardware (the "new" machine is uniformly ~4x slower), where the
// formation speedup genuinely eroded at 1000 nodes, the crypto speedup
// held, a shard pair is new, and a 250-node formation pair was dropped.
// An absolute-wall comparison would flag every cell on machine speed
// alone; the ratio trend must see through it.
func trendFixtures() (old, new []ScaleResult) {
	old = []ScaleResult{
		{Mode: "formation", Nodes: 1000, Index: "serial", WallMS: 40},
		{Mode: "formation", Nodes: 1000, Index: "percell", WallMS: 8}, // 5.0x
		{Mode: "crypto", Nodes: 1000, Index: "nocache", WallMS: 100},
		{Mode: "crypto", Nodes: 1000, Index: "cache", WallMS: 25}, // 4.0x
		{Mode: "formation", Nodes: 250, Index: "serial", WallMS: 3},
		{Mode: "formation", Nodes: 250, Index: "percell", WallMS: 1}, // dropped below
	}
	new = []ScaleResult{
		{Mode: "formation", Nodes: 1000, Index: "serial", WallMS: 160},
		{Mode: "formation", Nodes: 1000, Index: "percell", WallMS: 64}, // 2.5x: halved
		{Mode: "crypto", Nodes: 1000, Index: "nocache", WallMS: 400},
		{Mode: "crypto", Nodes: 1000, Index: "cache", WallMS: 105}, // 3.8x: noise
		{Mode: "shard", Nodes: 1000, Index: "serial", WallMS: 800}, // new pair
		{Mode: "shard", Nodes: 1000, Index: "sharded", WallMS: 200},
	}
	return old, new
}

func TestTrendComparesRatiosNotWall(t *testing.T) {
	old, new := trendFixtures()
	rows := Trend(old, new, 0.25)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (crypto@1000, formation@250, formation@1000, shard@1000)", len(rows))
	}
	byPair := map[string]TrendRow{}
	for _, r := range rows {
		if r.Mode == "formation" && r.Nodes == 250 {
			byPair["formation250"] = r
		} else {
			byPair[r.Mode] = r
		}
	}

	if r := byPair["formation"]; !r.Regressed || r.Old != "5.00x" || r.New != "2.50x" || r.Delta != "-50.0%" {
		t.Errorf("eroded formation speedup not flagged: %+v", r)
	}
	// Crypto: every wall time quadrupled (machine), ratio moved 4.0 -> ~3.8
	// — inside the threshold, must NOT be flagged despite +300% wall-ms.
	if r := byPair["crypto"]; r.Regressed {
		t.Errorf("machine-speed change flagged as regression: %+v", r)
	}
	if r := byPair["shard"]; r.Note != "new cell" || r.Regressed || r.New != "4.00x" {
		t.Errorf("new pair mishandled: %+v", r)
	}
	if r := byPair["formation250"]; r.Note != "dropped" || r.Regressed || r.Old != "3.00x" {
		t.Errorf("dropped pair mishandled: %+v", r)
	}
	if !Regressed(rows) {
		t.Error("Regressed did not notice the formation erosion")
	}
	// A looser threshold clears everything.
	if Regressed(Trend(old, new, 0.6)) {
		t.Error("60% threshold still flags a halved speedup")
	}
}

// The wire rule gates the pool cell's allocations per broadcast, not wall
// time: a machine-speed change leaves it untouched, while the pooled path
// regrowing allocations is flagged. The +1 in the cell value keeps a fully
// alloc-free cell (AllocsPerOp = 0) finite and comparable.
func TestTrendWirePairUsesAllocs(t *testing.T) {
	old := []ScaleResult{{Mode: "wire", Nodes: 4000, Index: "pool", WallMS: 20, AllocsPerOp: 0.002}}
	// Wall time triples (different machine); the pooled path now allocates
	// 4 per op — a real regression the wall numbers would hide.
	grown := []ScaleResult{{Mode: "wire", Nodes: 4000, Index: "pool", WallMS: 60, AllocsPerOp: 4}}
	rows := Trend(old, grown, 0.15)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Gate != "pool 1+allocs/op" {
		t.Fatalf("wire gate misnamed: %+v", r)
	}
	if r.Old != "1.002" || r.New != "5.000" || !r.Regressed {
		t.Errorf("allocation growth not flagged: %+v", r)
	}
	if !strings.Contains(RenderTrend(rows, 0.15), "REGRESSED") {
		t.Error("render does not flag the allocation growth")
	}
	// Identical allocation behavior on different hardware: no flag; nor
	// for drift inside the threshold.
	for _, allocs := range []float64{0.002, 0.1} {
		same := Trend(old, []ScaleResult{{Mode: "wire", Nodes: 4000, Index: "pool", WallMS: 60, AllocsPerOp: allocs}}, 0.15)
		if Regressed(same) {
			t.Errorf("allocs %v flagged on the wire cell: %+v", allocs, same)
		}
	}
}

// gridCell is a radio or audit cell with the given counts at 3 rounds.
func gridCell(mode string, nodes int, wall float64, events, tx, rx uint64) ScaleResult {
	return ScaleResult{Mode: mode, Nodes: nodes, Index: "grid", Rounds: 3, WallMS: wall,
		Events: events, TxFrames: tx, RxFrames: rx}
}

// The radio and audit rules gate the grid cell's event and frame counts at
// zero tolerance: a single frame of drift is a behaviour change, while a
// machine that runs the identical workload at a different speed is not.
func TestTrendRadioCountsExact(t *testing.T) {
	old := []ScaleResult{
		gridCell("radio", 1000, 4.4, 6000, 3000, 33837),
		gridCell("audit", 1000, 1615, 602536, 51000, 612000),
	}
	slower := []ScaleResult{
		gridCell("radio", 1000, 17.6, 6000, 3000, 33837),
		gridCell("audit", 1000, 6460, 602536, 51000, 612000),
	}
	rows := Trend(old, slower, 0.15)
	if len(rows) != 2 || Regressed(rows) {
		t.Fatalf("wall-time-only change flagged: %+v", rows)
	}
	for _, r := range rows {
		if r.Gate != "grid events/tx/rx" || r.Delta != "exact" || r.Note != "" {
			t.Errorf("count row mishandled: %+v", r)
		}
	}

	drifted := []ScaleResult{
		gridCell("radio", 1000, 4.4, 6000, 3000, 33838), // one extra delivery
		gridCell("audit", 1000, 1615, 602536, 51000, 612000),
	}
	rows = Trend(old, drifted, 0.15)
	if !Regressed(rows) {
		t.Fatalf("one-frame rx_frames drift not flagged: %+v", rows)
	}
	for _, r := range rows {
		switch r.Mode {
		case "radio":
			if !r.Regressed || r.Delta != "rx_frames 33837 -> 33838" {
				t.Errorf("radio drift mishandled: %+v", r)
			}
		case "audit":
			if r.Regressed {
				t.Errorf("unchanged audit cell flagged: %+v", r)
			}
		}
	}
	out := RenderTrend(rows, 0.15)
	for _, want := range []string{"REGRESSED", "rx_frames 33837 -> 33838", "6000/3000/33837", "exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// Counts scale with the round count, so sweeps that ran different rounds
// cannot be compared exactly: the row is reported, never gated.
func TestTrendRoundsMismatchNotGated(t *testing.T) {
	old := []ScaleResult{gridCell("radio", 1000, 4.4, 6000, 3000, 33837)}
	one := gridCell("radio", 1000, 4.4, 2000, 1000, 11279)
	one.Rounds = 1
	rows := Trend(old, []ScaleResult{one}, 0.15)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if r := rows[0]; r.Note != "rounds 3 vs 1 (not gated)" || r.Regressed || r.Delta == "exact" {
		t.Errorf("rounds mismatch mishandled: %+v", r)
	}
	if out := RenderTrend(rows, 0.15); !strings.Contains(out, "rounds 3 vs 1 (not gated)") {
		t.Errorf("render does not report the ungated row:\n%s", out)
	}
}

// A sweep with an incomplete pair (the optimized cell missing) contributes
// no ratio rather than a bogus one, and a mode with no rule shows up as an
// explicit unpaired row instead of silently escaping the gate.
func TestTrendIgnoresIncompletePairs(t *testing.T) {
	old := []ScaleResult{
		{Mode: "crypto", Nodes: 1000, Index: "nocache", WallMS: 40},
		// cache cell absent: no ratio can be formed
		{Mode: "mystery", Nodes: 1000, Index: "sweep", WallMS: 5}, // unknown mode
	}
	new := []ScaleResult{
		{Mode: "crypto", Nodes: 1000, Index: "nocache", WallMS: 40},
		{Mode: "crypto", Nodes: 1000, Index: "cache", WallMS: 10},
	}
	rows := Trend(old, new, 0.25)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (crypto half-pair + unpaired mystery mode)", len(rows))
	}
	var sawUnpaired bool
	for _, r := range rows {
		switch r.Mode {
		case "crypto":
			if r.Note != "new cell" || r.Regressed {
				t.Errorf("half-pair mishandled: %+v", r)
			}
		case "mystery":
			sawUnpaired = true
			if r.Note != "unpaired mode (not gated)" || r.Regressed {
				t.Errorf("unpaired mode mishandled: %+v", r)
			}
		}
	}
	if !sawUnpaired {
		t.Error("unpaired mode vanished from the trend")
	}
	if !strings.Contains(RenderTrend(rows, 0.25), "unpaired mode") {
		t.Error("render does not surface the unpaired mode")
	}
}

func TestTrendRowsAreOrdered(t *testing.T) {
	old, new := trendFixtures()
	rows := Trend(old, new, 0.25)
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Mode > b.Mode || (a.Mode == b.Mode && a.Nodes > b.Nodes) {
			t.Fatalf("rows out of order at %d: %+v before %+v", i, a, b)
		}
	}
}

func TestRenderTrendMarksRegressions(t *testing.T) {
	old, new := trendFixtures()
	out := RenderTrend(Trend(old, new, 0.25), 0.25)
	for _, want := range []string{"REGRESSED", "new cell", "dropped", "serial/percell", "5.00x", "2.50x", "-50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
