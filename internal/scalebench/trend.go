package scalebench

// Trend comparison between two scale sweeps (BENCH_scale.json shaped):
// the ROADMAP's "make regressions visible in the PR, not after" renderer.
//
// Raw wall-ms is a property of whoever ran the sweep — the committed
// baseline and a CI runner disagree by integer factors on identical code —
// so absolute wall deltas are never gated. Each mode gets one of three
// rules instead, each blind to machine speed:
//
//   - Exact counts (radio, audit). The grid cell's sim_events, tx_frames
//     and rx_frames are deterministic functions of the workload, seed and
//     round count. Between sweeps with equal rounds any drift is a
//     behaviour change and is flagged at zero tolerance; sweeps with
//     different rounds are reported but not gated.
//   - Cell value (wire). The pool cell's 1+allocs_per_op, flagged when it
//     grows beyond the threshold. The +1 keeps an allocation-free cell
//     (the pooled path's steady state) finite and comparable.
//   - Speedup ratio (crypto, formation, shard). Base over
//     optimized cell within one sweep, so the hardware cancels, flagged
//     when the ratio erodes beyond the threshold.
//
// cmd/sbrbench -trend drives this against the previous commit's archived
// artifact (falling back to the committed BENCH_scale.json).

import (
	"fmt"
	"sort"
	"strings"

	"sbr6/internal/trace"
)

// ruleKind is how a mode's cells are compared between two sweeps.
type ruleKind int

const (
	ratioRule ruleKind = iota // base/opt speedup ratio within each sweep
	countRule                 // the opt cell's exact event and frame counts
	cellRule                  // the opt cell's value (cellValue) alone
)

// rule names the cells one mode's comparison reads. Adding a mode to the
// sweep only needs a row here.
type rule struct {
	kind      ruleKind
	base, opt string // base is read by ratio rules only
}

var rules = map[string]rule{
	"radio":     {kind: countRule, opt: "grid"},
	"audit":     {kind: countRule, opt: "grid"},
	"wire":      {kind: cellRule, opt: "pool"},
	"crypto":    {kind: ratioRule, base: "nocache", opt: "cache"},
	"formation": {kind: ratioRule, base: "serial", opt: "percell"},
	"shard":     {kind: ratioRule, base: "serial", opt: "sharded"},
}

// label names what a rule compares in the rendered table.
func (ru rule) label() string {
	switch ru.kind {
	case countRule:
		return ru.opt + " events/tx/rx"
	case cellRule:
		return ru.opt + " 1+allocs/op"
	}
	return ru.base + "/" + ru.opt
}

// show renders one sweep's side of a row.
func (ru rule) show(p point) string {
	switch ru.kind {
	case countRule:
		return fmt.Sprintf("%d/%d/%d", p.cell.Events, p.cell.TxFrames, p.cell.RxFrames)
	case cellRule:
		return fmt.Sprintf("%.3f", p.value)
	}
	return fmt.Sprintf("%.2fx", p.value)
}

// cellValue is the quantity ratio and cell rules compare: wall time for
// the wall-bound modes, and for the wire mode 1 + allocations per
// broadcast.
func cellValue(r ScaleResult) float64 {
	if r.Mode == "wire" {
		return 1 + r.AllocsPerOp
	}
	return r.WallMS
}

// drift lists the gated counters that differ between two count-rule cells.
func drift(old, new ScaleResult) []string {
	var out []string
	for _, c := range []struct {
		name     string
		old, new uint64
	}{
		{"sim_events", old.Events, new.Events},
		{"tx_frames", old.TxFrames, new.TxFrames},
		{"rx_frames", old.RxFrames, new.RxFrames},
	} {
		if c.old != c.new {
			out = append(out, fmt.Sprintf("%s %d -> %d", c.name, c.old, c.new))
		}
	}
	return out
}

// TrendRow is one aligned comparison of two sweeps, rendered for the table.
type TrendRow struct {
	Mode  string
	Nodes int
	// Gate names what the row compares: "base/opt" for a speedup ratio,
	// the gated cell and quantity otherwise.
	Gate string
	// Old and New show the compared quantity in each sweep ("-" where a
	// sweep lacks it); Delta shows the change between them: a percentage,
	// "exact", or the counters that drifted.
	Old, New, Delta string
	// Regressed marks a row beyond its rule: a ratio eroded or a cell
	// value grown beyond the threshold, or any drift in a gated count row.
	Regressed bool
	// Note says why a row was not gated: "dropped" or "new cell" when only
	// one sweep has it (sweeps legitimately grow cells), "unpaired mode"
	// for a mode with no rule — visible instead of silently escaping the
	// gate — or the round counts of count rows that cannot be compared.
	Note string
}

// pairID aligns rows across sweeps.
type pairID struct {
	mode  string
	nodes int
}

// point is what one sweep contributes to a row: the gated cell, and for
// ratio and cell rules the compared value.
type point struct {
	cell  ScaleResult
	value float64
}

// points extracts every complete (mode, nodes) comparison point of one
// sweep. A ratio needs both of its cells, with positive values.
func points(rs []ScaleResult) map[pairID]point {
	cells := map[string]ScaleResult{}
	key := func(mode, index string, nodes int) string {
		return mode + "\x00" + index + "\x00" + fmt.Sprint(nodes)
	}
	for _, r := range rs {
		cells[key(r.Mode, r.Index, r.Nodes)] = r
	}
	out := map[pairID]point{}
	for _, r := range rs {
		ru, known := rules[r.Mode]
		if !known || r.Index != ru.opt {
			continue
		}
		p := point{cell: r, value: cellValue(r)}
		if ru.kind == ratioRule {
			base, ok := cells[key(r.Mode, ru.base, r.Nodes)]
			if !ok || cellValue(base) <= 0 || p.value <= 0 {
				continue
			}
			p.value = cellValue(base) / p.value
		}
		out[pairID{r.Mode, r.Nodes}] = p
	}
	return out
}

// Trend aligns two sweeps by (mode, nodes) and applies each mode's rule.
// Rows are ordered mode, then nodes, so renders are stable whatever order
// the JSON carried.
func Trend(old, new []ScaleResult, threshold float64) []TrendRow {
	olds, news := points(old), points(new)
	seen := map[pairID]bool{}
	var ids []pairID
	add := func(id pairID) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for id := range olds {
		add(id)
	}
	for id := range news {
		add(id)
	}
	for _, rs := range [][]ScaleResult{old, new} {
		for _, r := range rs {
			if _, known := rules[r.Mode]; !known {
				add(pairID{r.Mode, r.Nodes})
			}
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].mode != ids[b].mode {
			return ids[a].mode < ids[b].mode
		}
		return ids[a].nodes < ids[b].nodes
	})

	rows := make([]TrendRow, 0, len(ids))
	for _, id := range ids {
		ru, known := rules[id.mode]
		row := TrendRow{Mode: id.mode, Nodes: id.nodes, Gate: ru.label(), Old: "-", New: "-", Delta: "-"}
		o, hasOld := olds[id]
		n, hasNew := news[id]
		if hasOld {
			row.Old = ru.show(o)
		}
		if hasNew {
			row.New = ru.show(n)
		}
		switch {
		case !known:
			row.Gate, row.Note = "-", "unpaired mode (not gated)"
		case !hasNew:
			row.Note = "dropped"
		case !hasOld:
			row.Note = "new cell"
		case ru.kind == countRule:
			d := drift(o.cell, n.cell)
			row.Delta = "exact"
			if len(d) > 0 {
				row.Delta = strings.Join(d, ", ")
			}
			if o.cell.Rounds != n.cell.Rounds {
				row.Note = fmt.Sprintf("rounds %d vs %d (not gated)", o.cell.Rounds, n.cell.Rounds)
			} else {
				row.Regressed = len(d) > 0
			}
		case ru.kind == cellRule:
			growth := (n.value - o.value) / o.value
			row.Delta = fmt.Sprintf("%+.1f%%", growth*100)
			row.Regressed = growth > threshold
		default:
			erosion := (o.value - n.value) / o.value
			row.Delta = fmt.Sprintf("%+.1f%%", -erosion*100)
			row.Regressed = erosion > threshold
		}
		rows = append(rows, row)
	}
	return rows
}

// Regressed reports whether any row is beyond its rule.
func Regressed(rows []TrendRow) bool {
	for _, r := range rows {
		if r.Regressed {
			return true
		}
	}
	return false
}

// RenderTrend renders the aligned rows as a table, flagging regressions.
func RenderTrend(rows []TrendRow, threshold float64) string {
	t := trace.NewTable(
		fmt.Sprintf("scale sweep trend (exact counts; allocations and speedup ratios REGRESSED beyond %.0f%%)", threshold*100),
		"mode", "nodes", "gate", "old", "new", "delta", "")
	for _, r := range rows {
		flag := r.Note
		if r.Regressed {
			flag = "REGRESSED"
		}
		t.Add(r.Mode, fmt.Sprint(r.Nodes), r.Gate, r.Old, r.New, r.Delta, flag)
	}
	return t.String()
}
