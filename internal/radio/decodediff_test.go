package radio_test

// Receive-path differential suite: skipping the decode of a frame no
// handler will act on must be invisible. An honest node scans every frame
// and decodes only what its admission step lets through; a node with a
// Behavior decodes every frame, because Intercept sees them all. For
// every scenario in the equivalence matrix, plus a sharded row and a row
// with names, an audit sweep and a cloned address, a run in which every
// otherwise honest node carries a pass-through Behavior — forcing the
// decode-everything path network-wide — must produce a Result identical
// to the plain run.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sbr6/internal/audit"
	"sbr6/internal/core"
	"sbr6/internal/scenario"
	"sbr6/internal/wire"
)

// passThrough is a Behavior that never intervenes: its only effect is to
// put its node on the decode-everything receive path.
type passThrough struct{}

func (passThrough) Intercept(*core.Node, *wire.Packet, []byte) bool { return false }
func (passThrough) DropForward(*core.Node, *wire.Packet) bool       { return false }

// decodeDiffRow is one scenario of the suite; prepare, when set, edits the
// built scenario before it runs.
type decodeDiffRow struct {
	cfg     func() scenario.Config
	prepare func(*scenario.Scenario)
}

func decodeDiffMatrix() map[string]decodeDiffRow {
	rows := map[string]decodeDiffRow{}
	for name, mk := range equivalenceMatrix() {
		rows[name] = decodeDiffRow{cfg: mk}
	}
	rows["sharded"] = decodeDiffRow{cfg: func() scenario.Config {
		cfg := equivalenceMatrix()["battlefield"]()
		cfg.Shards = 2
		return cfg
	}}
	// Node 17 boots later (serial admission) on a clone of named node 5's
	// address while registering a fresh name, so the configured owner
	// objects and warns the DNS off the pending registration; the audit
	// sweep then floods advertisements through the formed network.
	rows["named-audit-clone"] = decodeDiffRow{
		cfg: func() scenario.Config {
			cfg := equivalenceMatrix()["quickstart"]()
			cfg.Names = map[int]string{5: "server", 9: "printer", 17: "laptop"}
			cfg.Protocol.Audit = audit.Config{Period: 2 * time.Second}
			return cfg
		},
		prepare: func(sc *scenario.Scenario) {
			clone := *sc.Nodes[5].Identity()
			clone.Name = sc.Nodes[17].Name()
			*sc.Nodes[17].Identity() = clone
		},
	}
	return rows
}

// runDecodeDiff builds and runs one row; passThroughAll gives every node
// without a Behavior a pass-through one.
func runDecodeDiff(t *testing.T, row decodeDiffRow, seed int64, passThroughAll bool) *scenario.Result {
	t.Helper()
	cfg := row.cfg()
	cfg.Seed = seed
	if passThroughAll {
		behaviors := map[int]core.Behavior{}
		for i := 0; i < cfg.N; i++ {
			behaviors[i] = passThrough{}
		}
		for i, b := range cfg.Behaviors {
			behaviors[i] = b
		}
		cfg.Behaviors = behaviors
	}
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("build (seed %d): %v", seed, err)
	}
	if row.prepare != nil {
		row.prepare(sc)
	}
	return sc.Run(context.Background())
}

func TestSkippedDecodesInvisible(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	exercised := map[string]float64{}
	for name, row := range decodeDiffMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				plain := runDecodeDiff(t, row, seed, false)
				decodeAll := runDecodeDiff(t, row, seed, true)
				if !reflect.DeepEqual(plain, decodeAll) {
					t.Errorf("seed %d: skipping decodes changed the run:\n   plain: %v\ndecodeall: %v",
						seed, plain, decodeAll)
				}
				for _, c := range []string{"rx.AREQ", "rx.RREQ", "rx.AADV", "dns.warns_accepted"} {
					exercised[c] += plain.Metrics.Get(c)
				}
			}
		})
	}
	// Non-vacuity: every admission rule and the warn flood ran somewhere.
	for c, v := range exercised {
		if v == 0 {
			t.Errorf("%s never rose across the matrix", c)
		}
	}
}
