// Package boot schedules when each node of a forming network starts secure
// duplicate address detection.
//
// The paper's bootstrap is safest when claims are serialized: a node that
// starts DAD after every earlier claimant has configured is guaranteed that
// any conflicting owner can hear its AREQ flood and object inside the
// objection window. But a single global stagger makes formation time linear
// in the node count — the only phase of a 10k-node simulation that still
// is. The admission policies here trade that global ordering for a spatial
// one: claims in the same grid cell (a fraction of the radio range on a
// side, so an objection between cellmates never needs a relay) stay
// separated by at least the objection window, while spatially disjoint
// cells bootstrap concurrently.
//
// Both policies are pure functions of their Plan: PerCell's draws are
// keyed by admission cell on the boot stream (internal/draw), so adding or
// switching a policy never perturbs the rest of a seeded run, and a given
// (policy, seed) pair always produces the same schedule. The formation
// conformance suite in this package is the proof obligation: under every
// policy all nodes end fully addressed with unique addresses, seeded
// duplicate claims and name conflicts are detected with identical
// counters, and each policy is byte-for-byte deterministic per seed.
package boot

import (
	"fmt"
	"time"

	"sbr6/internal/draw"
	"sbr6/internal/geom"
)

// Kind enumerates the built-in admission policies.
type Kind int

// Admission policy kinds.
const (
	// Serial starts node i at offset i*Stagger — the historical global
	// stagger. Safest (every prior claimant is configured and relaying when
	// a node floods) and slowest: formation time is linear in N.
	Serial Kind = iota
	// PerCell staggers only claimants that share a grid cell; disjoint
	// cells bootstrap concurrently. Formation time scales with the maximum
	// cell occupancy instead of N.
	PerCell
)

// String names the kind the way the CLI flags spell it.
func (k Kind) String() string {
	switch k {
	case Serial:
		return "serial"
	case PerCell:
		return "percell"
	default:
		return fmt.Sprintf("boot.Kind(%d)", int(k))
	}
}

// Valid reports whether k names a built-in policy.
func (k Kind) Valid() bool { return k == Serial || k == PerCell }

// Plan is everything a policy may consult when scheduling DAD starts. It is
// assembled by the scenario harness from the built (not yet run) network.
type Plan struct {
	// Seed makes tie-breaking and cell phases reproducible. It must be the
	// scenario seed so a schedule never varies between runs of one config.
	Seed int64
	// Window is the objection window (the DAD timeout): the time a claim
	// stays open for AREP/DREP objections.
	Window time.Duration
	// Stagger is the requested separation between starts that must not
	// overlap. Policies clamp it up to Window — scheduling two conflicting
	// claimants closer than the objection window would let both succeed.
	Stagger time.Duration
	// Cell is the grid cell side in metres, normally the radio range.
	Cell float64
	// Anchor is the index of the node that must start at offset zero (the
	// DNS server, which later claimants' name checks depend on); -1 pins
	// nothing.
	Anchor int
	// Positions holds each node's position at formation start.
	Positions []geom.Point
	// CellFraction scales Cell down to the admission bucket side for
	// PerCell; 0 selects DefaultCellFraction. Values above MaxCellFraction
	// break the direct-reach guarantee and are rejected by the harness's
	// configuration validation before a Plan is ever assembled.
	CellFraction float64
}

// cellFraction returns the effective bucket fraction.
func (p Plan) cellFraction() float64 {
	if p.CellFraction <= 0 {
		return DefaultCellFraction
	}
	return p.CellFraction
}

// sep returns the effective same-cell separation: the requested stagger,
// never below the objection window, never zero.
func (p Plan) sep() time.Duration {
	s := p.Stagger
	if s < p.Window {
		s = p.Window
	}
	if s <= 0 {
		s = time.Millisecond
	}
	return s
}

// Policy assigns every node a DAD start offset from formation start.
type Policy interface {
	// Name is the CLI spelling of the policy.
	Name() string
	// Schedule returns one offset per plan position. Offsets are
	// non-negative and deterministic in the plan.
	Schedule(p Plan) []time.Duration
}

// New returns the built-in policy for k; unknown kinds fall back to Serial,
// the safe default (callers validate kinds at configuration time).
func New(k Kind) Policy {
	if k == PerCell {
		return PerCellPolicy{}
	}
	return SerialPolicy{}
}

// SerialPolicy is the historical global stagger: node i starts at
// i*Stagger. The plan's positions, cell size and anchor are ignored — the
// anchor is node 0 by construction, scheduled first.
type SerialPolicy struct{}

// Name implements Policy.
func (SerialPolicy) Name() string { return Serial.String() }

// Schedule implements Policy. Unlike PerCell, the raw Stagger is honored
// even below the objection window: shrinking it is the established escape
// hatch for thousand-node runs that accept the extra DAD contention.
func (SerialPolicy) Schedule(p Plan) []time.Duration {
	out := make([]time.Duration, len(p.Positions))
	for i := range out {
		out[i] = time.Duration(i) * p.Stagger
	}
	return out
}

// DefaultCellFraction scales Plan.Cell (the radio range) down to the side
// of the admission buckets when the plan does not choose a fraction. At
// 0.25 the bucket diagonal is 0.35 radio ranges, so two claimants sharing
// a bucket start in direct radio reach of each other with 0.65 ranges of
// slack for drift between scheduling and claiming — the same-bucket
// objection then needs no relays. (Formations mobile enough to out-run
// that slack within an objection window fall back on relayed detection,
// like every out-of-range pair.) The fraction also sets the concurrency:
// at the reference density of ~12 neighbours per range disk, mean bucket
// occupancy is ~0.25, some eight of nine nodes sit alone in their bucket,
// and the whole network is admitted in a handful of waves. Larger
// fractions widen the protected radius but push more nodes into later
// waves, converging back to the serial policy's cost; sparse networks
// widen it essentially for free (Plan.CellFraction, the facade's
// WithBootCellFraction).
const DefaultCellFraction = 0.25

// MaxCellFraction is the largest admissible bucket fraction: at 1/sqrt(2)
// the bucket diagonal equals exactly one radio range, the limit past which
// two same-bucket claimants are no longer guaranteed direct radio reach —
// the invariant the per-cell policy's detection argument rests on.
const MaxCellFraction = 0.7071

// PerCellPolicy schedules concurrent per-cell bootstrap: nodes are bucketed
// into grid cells of side Plan.CellFraction*Plan.Cell (DefaultCellFraction unless the plan chooses), each cell's claimants are
// ranked by a seed-stable hash, and a node's offset is
//
//	phase(seed, cell) + rank * sep
//
// where sep = max(Stagger, Window) and phase is a deterministic per-cell
// offset strictly inside half an objection window. The rank term keeps
// same-cell claims at least one full window apart: whoever claims second
// does so against a configured owner in guaranteed direct radio reach —
// the serial policy's detection path, localized. The phase term
// desynchronizes cells so same-rank floods do not hit the medium in one
// instant, while staying inside the window so same-rank waves remain
// mutually concurrent (a claimant never pays relays for a same-rank cell
// that happens to have configured microseconds earlier).
//
// What is given up relative to serial admission is detection that needs
// configured relays before they exist: simultaneous duplicate claims
// between different cells (which CGA's per-pair 2^-64 collision bound
// already covers for honest nodes, and which an attacker can manufacture
// under any policy by ignoring the schedule), and the registration of
// domain names claimed by nodes whose early flood cannot yet reach a
// multi-hop-distant DNS server: nothing sends such a claim again, so the
// name stays unregistered while its claimant, having heard no DREP, takes
// it as registered.
//
// The offset multiset of a cell is a function of (seed, cell, occupancy)
// alone — relabeling nodes permutes who gets which rank but never the
// schedule shape — which is what the quick.Check properties in this
// package pin down.
type PerCellPolicy struct{}

// Name implements Policy.
func (PerCellPolicy) Name() string { return PerCell.String() }

// Schedule implements Policy.
func (PerCellPolicy) Schedule(p Plan) []time.Duration {
	out := make([]time.Duration, len(p.Positions))
	if len(p.Positions) == 0 {
		return out
	}
	sep := p.sep()
	spread := p.Window / 2 // cell phases stay well inside one window
	g := geom.NewGrid(p.Cell * p.cellFraction())
	for i, pos := range p.Positions {
		g.Set(i, pos)
	}
	// Rank each cell's members by seed-stable hash (ties by index, anchor
	// pinned first), then lay ranks out one separation apart on top of the
	// cell's phase. Cells are independent, so the unspecified VisitCells
	// order cannot leak into the offsets.
	var members []ranked
	g.VisitCells(func(ix, iy int32, ids []int) {
		cell := draw.KeyOf(p.Seed, draw.Boot, uint64(uint32(ix))<<32|uint64(uint32(iy)))
		var phase time.Duration
		if spread > 0 {
			phase = time.Duration(draw.Mix(cell, 0) % uint64(spread))
		}
		members = members[:0]
		for _, id := range ids {
			members = append(members, ranked{id: id, h: draw.Mix(cell, uint64(id)+1)})
		}
		sortRanked(members, p.Anchor)
		for r, m := range members {
			if m.id == p.Anchor {
				out[m.id] = 0
				continue
			}
			out[m.id] = phase + time.Duration(r)*sep
		}
	})
	return out
}

// ranked pairs a node index with its seed-stable cell-local sort key.
type ranked struct {
	id int
	h  uint64
}

// sortRanked orders members by (anchor-first, hash, id) — an insertion sort
// over cell occupancies that are small by construction (a cell holds the
// nodes within one radio range of each other).
func sortRanked(ms []ranked, anchor int) {
	less := func(a, b ranked) bool {
		if (a.id == anchor) != (b.id == anchor) {
			return a.id == anchor
		}
		if a.h != b.h {
			return a.h < b.h
		}
		return a.id < b.id
	}
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && less(ms[j], ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// Horizon returns when the last objection window of a schedule closes,
// plus the settle margin the caller supplies: the earliest instant a
// harness may declare formation over.
func Horizon(offsets []time.Duration, window, margin time.Duration) time.Duration {
	var last time.Duration
	for _, o := range offsets {
		if o > last {
			last = o
		}
	}
	return last + window + margin
}
