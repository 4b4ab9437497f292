package scalebench

import (
	"reflect"
	"testing"
	"time"

	"sbr6/internal/boot"
)

// TestScaleCountsReproducible runs each gated cell twice in one process,
// at one timed round as the scale ledger does, and requires identical
// counts, so a nondeterministic cell fails here, under CI's -race -short,
// before the ledger's diff sees it.
func TestScaleCountsReproducible(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() ScaleResult
	}{
		{"radio", func() ScaleResult { return RunScale(250, 1, 1, time.Now) }},
		{"audit", func() ScaleResult { return RunAuditSweep(250, 1, 1, time.Now) }},
		{"crypto", func() ScaleResult { return RunCryptoScale(250, 1, 1, time.Now) }},
		{"formation.serial", func() ScaleResult { return RunFormation(1000, boot.Serial, 1, time.Now) }},
		{"formation.percell", func() ScaleResult { return RunFormation(1000, boot.PerCell, 1, time.Now) }},
		{"shard.r1", func() ScaleResult { return RunShard(2000, 1, 1, 1, time.Now) }},
		{"shard.r8", func() ScaleResult { return RunShard(2000, ShardRegions, 1, 1, time.Now) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := c.run(), c.run()
			if !reflect.DeepEqual(a.Counts, b.Counts) {
				t.Fatalf("counts differ between two runs:\n%v\n%v", a.Counts, b.Counts)
			}
		})
	}
}

// TestWireRoundAllocs holds the pooled wire path to its purpose: once the
// pools, event free lists and grid are warm, a 1000-node flood round with
// a real encode per broadcast allocates almost nothing.
func TestWireRoundAllocs(t *testing.T) {
	wn := BuildWireNetwork(1000, 1)
	wn.Round()
	if allocs := testing.AllocsPerRun(3, wn.Round); allocs > 10 {
		t.Fatalf("a warm 1000-node wire round made %.0f allocations, want at most 10", allocs)
	}
}
