package boot

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sbr6/internal/geom"
)

func TestKindValid(t *testing.T) {
	for _, k := range []Kind{Serial, PerCell} {
		if !k.Valid() {
			t.Errorf("%v not Valid", k)
		}
	}
	if Kind(42).Valid() {
		t.Error("Kind(42) reported valid")
	}
}

func TestNewFallsBackToSerial(t *testing.T) {
	if New(Kind(42)).Name() != "serial" {
		t.Error("unknown kind did not fall back to the serial policy")
	}
	if New(PerCell).Name() != "percell" {
		t.Error("New(PerCell) is not the per-cell policy")
	}
}

func TestSerialOffsets(t *testing.T) {
	p := Plan{Stagger: 250 * time.Millisecond, Positions: make([]geom.Point, 5)}
	got := SerialPolicy{}.Schedule(p)
	for i, o := range got {
		if want := time.Duration(i) * p.Stagger; o != want {
			t.Errorf("offset[%d] = %v, want %v", i, o, want)
		}
	}
}

// randomPlan builds a per-cell plan over a uniform placement.
func randomPlan(rng *rand.Rand, n int) Plan {
	side := 125.0 * float64(n) // generous spread, several buckets
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return Plan{
		Seed:      rng.Int63(),
		Window:    time.Duration(1+rng.Intn(2000)) * time.Millisecond,
		Stagger:   time.Duration(rng.Intn(3000)) * time.Millisecond,
		Cell:      250,
		Anchor:    -1,
		Positions: pts,
	}
}

func TestPerCellAnchorStartsFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := randomPlan(rng, 2+rng.Intn(60))
		p.Anchor = 0
		got := PerCellPolicy{}.Schedule(p)
		if got[0] != 0 {
			t.Fatalf("trial %d: anchor offset = %v, want 0", trial, got[0])
		}
		// The anchor's cellmates must still clear the objection window.
		g := geom.NewGrid(p.Cell * DefaultCellFraction)
		for i, pos := range p.Positions {
			g.Set(i, pos)
		}
		ax, ay, _ := g.CellOf(0)
		for i := 1; i < len(got); i++ {
			ix, iy, _ := g.CellOf(i)
			if ix == ax && iy == ay && got[i]-got[0] < p.Window {
				t.Fatalf("trial %d: anchor cellmate %d at %v inside the window %v",
					trial, i, got[i], p.Window)
			}
		}
	}
}

func TestHorizon(t *testing.T) {
	offs := []time.Duration{0, 3 * time.Second, time.Second}
	got := Horizon(offs, 500*time.Millisecond, 2*time.Second)
	if want := 3*time.Second + 500*time.Millisecond + 2*time.Second; got != want {
		t.Errorf("Horizon = %v, want %v", got, want)
	}
	if got := Horizon(nil, time.Second, time.Second); got != 2*time.Second {
		t.Errorf("empty Horizon = %v, want 2s", got)
	}
}

func TestPerCellDeterministicAndRNGFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomPlan(rng, 80)
	a := PerCellPolicy{}.Schedule(p)
	b := PerCellPolicy{}.Schedule(p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("per-cell schedule not deterministic for a fixed plan")
	}
}
