package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layers are the program's modules a profile sample can be charged to:
// the internal packages, the sbr6 facade, the runtime's background GC
// workers, and everything else without an sbr6 frame.
var layers = []string{
	"sim", "radio", "geom", "pool", "wire", "identity", "cga", "ipv6",
	"verifycache", "bindtable", "ndp", "dnssrv", "core", "dsr", "credit",
	"audit", "boot", "mobility", "attack", "shard", "scenario", "trace",
	"daemon", "sbr6", "gcworker", "runtime",
}

// profiler collects one CPU profile per phase of each replicate of a
// traced pass. A nil profiler does nothing.
type profiler struct {
	buf    bytes.Buffer
	on     bool
	err    error
	phases map[string][][]byte
}

func (pr *profiler) start() {
	if pr == nil {
		return
	}
	pr.buf.Reset()
	if err := pprof.StartCPUProfile(&pr.buf); err != nil {
		pr.err = errors.Join(pr.err, err)
		return
	}
	pr.on = true
}

func (pr *profiler) stop(phase string) {
	if pr == nil || !pr.on {
		return
	}
	pprof.StopCPUProfile()
	pr.on = false
	if pr.phases == nil {
		pr.phases = make(map[string][][]byte)
	}
	pr.phases[phase] = append(pr.phases[phase], append([]byte(nil), pr.buf.Bytes()...))
}

// attributePhase decodes and attributes every profile of one phase and
// sums them.
func (pr *profiler) attributePhase(phase string) (attribution, error) {
	sum := attribution{layers: map[string]int64{}, spans: map[string]int64{}}
	if len(pr.phases[phase]) == 0 {
		return sum, fmt.Errorf("no %s profile", phase)
	}
	for _, data := range pr.phases[phase] {
		prof, err := parseProfile(data)
		if err != nil {
			return sum, err
		}
		a, err := attribute(prof)
		if err != nil {
			return sum, err
		}
		sum.total += a.total
		for k, v := range a.layers {
			sum.layers[k] += v
		}
		for k, v := range a.spans {
			sum.spans[k] += v
		}
	}
	return sum, nil
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	strings     []string
	sampleTypes [][2]int64 // (type, unit) string indexes
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
	labels    [][2]int64 // (key, str) string indexes
}

var errProto = errors.New("malformed profile")

// parseProfile decodes a gzipped (or raw) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(data, func(num, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := fields(b, func(num, wt int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					t[num-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, t)
			return err
		case 2:
			s, err := parseSample(b)
			p.samples = append(p.samples, s)
			return err
		case 4:
			return p.parseLocation(b)
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			if wt != 2 {
				return errProto
			}
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		return nil, fmt.Errorf("%w: no string table", errProto)
	}
	return p, nil
}

func parseSample(b []byte) (sample, error) {
	var s sample
	err := fields(b, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 1:
			return repeated(wt, v, data, func(x uint64) { s.locations = append(s.locations, x) })
		case 2:
			return repeated(wt, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
		case 3:
			var l [2]int64
			err := fields(data, func(num, wt int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					l[num-1] = int64(v)
				}
				return nil
			})
			s.labels = append(s.labels, l)
			return err
		}
		return nil
	})
	return s, err
}

func (p *profile) parseLocation(b []byte) error {
	var id uint64
	var funcs []uint64
	err := fields(b, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // line: function_id = 1
			return fields(data, func(num, wt int, v uint64, _ []byte) error {
				if num == 1 {
					funcs = append(funcs, v)
				}
				return nil
			})
		}
		return nil
	})
	p.locations[id] = funcs
	return err
}

// fields walks one protobuf message, calling f with each field's number,
// wire type, and its scalar value or length-delimited bytes.
func fields(b []byte, f func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := f(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either encoding: one value
// per field, or packed into one length-delimited field.
func repeated(wt int, v uint64, data []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	if wt != 2 {
		return errProto
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		add(x)
		data = data[n:]
	}
	return nil
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// attribution is a profile's CPU time charged to layers and to the
// benchmark's spans, in nanoseconds. Each sample is charged once to each.
type attribution struct {
	total  int64
	layers map[string]int64
	spans  map[string]int64
}

// attribute charges every sample to the innermost sbr6 frame's package;
// runtime and standard-library frames beneath it count as that package's
// self time. Samples without an sbr6 frame go to gcworker when a
// background GC worker is on the stack and to runtime otherwise.
func attribute(p *profile) (attribution, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if p.str(t[0]) == "cpu" && p.str(t[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return attribution{}, fmt.Errorf("%w: no cpu/nanoseconds sample type", errProto)
	}
	a := attribution{layers: map[string]int64{}, spans: map[string]int64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return attribution{}, fmt.Errorf("%w: sample has %d values", errProto, len(s.values))
		}
		v := s.values[vi]
		a.total += v
		a.layers[p.layerOf(s)] += v
		span := "(none)"
		for _, l := range s.labels {
			if p.str(l[0]) == "span" {
				span = p.str(l[1])
			}
		}
		a.spans[span] += v
	}
	return a, nil
}

func (p *profile) layerOf(s sample) string {
	gc := false
	for _, loc := range s.locations {
		for _, fid := range p.locations[loc] {
			name := p.str(p.functions[fid])
			if layer, ok := layerOf(name); ok {
				return layer
			}
			if name == "runtime.gcBgMarkWorker" {
				gc = true
			}
		}
	}
	if gc {
		return "gcworker"
	}
	return "runtime"
}

// layerOf maps a function's symbol to its sbr6 layer: "sbr6" for the
// facade, the package name for sbr6/internal/<pkg>/...
func layerOf(fn string) (string, bool) {
	pkg := pkgPath(fn)
	if pkg == "sbr6" {
		return "sbr6", true
	}
	rest, ok := strings.CutPrefix(pkg, "sbr6/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// pkgPath returns the import path of a symbol such as
// "sbr6/internal/pool.(*Pool[...]).Get".
func pkgPath(fn string) string {
	// Generic arguments and receivers may hold paths of their own.
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
