package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) key(num, wt int) { p.b = binary.AppendUvarint(p.b, uint64(num<<3|wt)) }

func (p *pb) varint(num int, v uint64) {
	p.key(num, 0)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.key(num, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var in pb
	for _, v := range vs {
		in.b = binary.AppendUvarint(in.b, v)
	}
	p.bytes(num, in.b)
}

// synthProfile builds a CPU profile over the given stacks (leaf first),
// each sample worth ms milliseconds and optionally labelled with a span.
type synthSample struct {
	stack [][]string // locations, each a list of inlined functions, innermost first
	ms    int64
	span  string
}

func synthProfile(samples []synthSample) []byte {
	strs := []string{""}
	idx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var p pb
	for _, t := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pb
		vt.varint(1, str(t[0]))
		vt.varint(2, str(t[1]))
		p.bytes(1, vt.b)
	}
	funcs := map[string]uint64{}
	var locs, fns pb
	nextLoc := uint64(1)
	for i, s := range samples {
		var ids []uint64
		for _, loc := range s.stack {
			var l pb
			l.varint(1, nextLoc)
			for _, fn := range loc {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pb
					f.varint(1, id)
					f.varint(2, str(fn))
					fns.bytes(5, f.b)
				}
				var line pb
				line.varint(1, id)
				l.bytes(4, line.b)
			}
			locs.bytes(4, l.b)
			ids = append(ids, nextLoc)
			nextLoc++
		}
		var sp pb
		if i%2 == 0 { // exercise both repeated-field encodings
			sp.packed(1, ids...)
			sp.packed(2, 1, uint64(s.ms*1e6))
		} else {
			for _, id := range ids {
				sp.varint(1, id)
			}
			sp.varint(2, 1)
			sp.varint(2, uint64(s.ms*1e6))
		}
		if s.span != "" {
			var lab pb
			lab.varint(1, str("span"))
			lab.varint(2, str(s.span))
			sp.bytes(3, lab.b)
		}
		p.bytes(2, sp.b)
	}
	p.b = append(p.b, locs.b...)
	p.b = append(p.b, fns.b...)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.b)
	zw.Close()
	return z.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	one := func(fns ...string) [][]string {
		var st [][]string
		for _, f := range fns {
			st = append(st, []string{f})
		}
		return st
	}
	data := synthProfile([]synthSample{
		// stdlib beneath the innermost sbr6 frame counts as that frame's layer
		{stack: one("runtime.memmove", "sbr6/internal/wire.Decode", "sbr6/internal/core.(*Node).receive", "sbr6.(*Session).Advance"), ms: 30, span: "window"},
		// an inlined stack: the location's lines are innermost first
		{stack: [][]string{{"crypto/ed25519.Sign", "sbr6/internal/identity.(*Identity).Sign"}, {"sbr6/internal/core.(*Node).relay"}}, ms: 20, span: "window"},
		// generic instantiations carry package paths in their brackets
		{stack: one("sbr6/internal/pool.(*Pool[go.shape.struct { sbr6/internal/wire.Frame }]).Get", "sbr6/internal/radio.(*Medium).Broadcast"), ms: 10},
		{stack: one("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), ms: 15},
		{stack: one("runtime.mallocgc", "encoding/json.Unmarshal", "main.(*rpcClient).call"), ms: 5, span: "rpc"},
		{stack: one("sbr6/internal/daemon.(*Server).handle", "sbr6/internal/daemon.(*Server).Serve"), ms: 10, span: "serve"},
		{stack: one("sbr6.Resume"), ms: 10, span: "resume"},
	})
	prof, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := attribute(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"wire": 30, "identity": 20, "pool": 10, "gcworker": 15, "runtime": 5, "daemon": 10, "sbr6": 10}
	var sum int64
	for layer, ns := range a.layers {
		sum += ns
		if ns != want[layer]*1e6 {
			t.Errorf("layer %s: %d ns, want %d ms", layer, ns, want[layer])
		}
	}
	if len(a.layers) != len(want) {
		t.Errorf("layers %v, want %v", a.layers, want)
	}
	if sum != a.total || a.total != 100e6 {
		t.Errorf("layers sum to %d of total %d, want both 100 ms: each sample charged once", sum, a.total)
	}
	wantSpans := map[string]int64{"window": 50, "(none)": 25, "rpc": 5, "serve": 10, "resume": 10}
	for span, ms := range wantSpans {
		if a.spans[span] != ms*1e6 {
			t.Errorf("span %s: %d ns, want %d ms", span, a.spans[span], ms)
		}
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	data := synthProfile([]synthSample{{stack: [][]string{{"sbr6/internal/sim.(*Sim).Run"}}, ms: 10}})
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(zr)
	if _, err := parseProfile(raw.Bytes()[:raw.Len()-3]); err == nil {
		t.Fatal("a truncated profile parsed")
	}
}

// TestParseRuntimeProfile checks the decoder on a profile the Go runtime
// wrote, so a change in the encoder's field layout shows up here.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a, err := attribute(prof)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ns := range a.layers {
		sum += ns
	}
	if sum != a.total {
		t.Errorf("layers sum to %d, total %d", sum, a.total)
	}
	if x == 0 {
		t.Fatal("busy loop did not run")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"sbr6.(*Session).Advance":                    "sbr6",
		"sbr6.Resume":                                "sbr6",
		"sbr6/internal/core.(*Node).Start.func1":     "core",
		"sbr6/internal/pool.(*Pool[sbr6/x.T]).Get":   "pool",
		"sbr6/internal/scenario.(*Live).Step":        "scenario",
		"sbr6/internal/shard.(*Engine).round.func2":  "shard",
		"type:.eq.sbr6/internal/wire.Header":         "",
		"sbr6/perfbench.TestLayerOf":                 "",
		"runtime.gcBgMarkWorker":                     "",
		"crypto/ed25519.Sign":                        "",
		"main.(*pass).measure":                       "",
		"sbr6x/internal/core.Fake":                   "",
		"github.com/x/sbr6/internal/core.NotOurs":    "",
		"sbr6/internal/identity.New[go.shape.int_0]": "identity",
	} {
		got, ok := layerOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}
