package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// declared is one metric entry of BENCHMARK.json.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

// reported returns the metrics the benchmark prints in each mode,
// computed on empty passes: only names and units matter here.
func reported() (endToEnd, perLayerMetrics []metric) {
	o := &ops{log: io.Discard}
	w := workloads[0]
	p := &pass{w: w, ops: o}
	endToEnd = p.endToEnd(o, io.Discard)
	tp := &pass{w: w, ops: o, prof: &profiler{}}
	return endToEnd, perLayer(tp, p, o, io.Discard)
}

func TestMetricNamesAreValidAndUnique(t *testing.T) {
	e2e, layer := reported()
	seen := map[string]bool{}
	for _, m := range append(e2e, layer...) {
		if !validName.MatchString(m.name) {
			t.Errorf("metric name %q is not a valid name", m.name)
		}
		if !validUnit.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q is not a valid unit", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
	for _, l := range layers {
		for _, suffix := range []string{".self_ms_per_window", ".setup_self_s"} {
			if !seen[l+suffix] {
				t.Errorf("layer %s reports no %s", l, suffix)
			}
		}
	}
}

// TestManifestMatchesReportedMetrics keeps BENCHMARK.json and the
// program in step: every declared metric is printed with its declared
// unit in its mode, and nothing undeclared is printed.
func TestManifestMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	e2e, layer := reported()
	compare := func(mode string, decl []declared, got []metric, bounded bool) {
		units := map[string]string{}
		for _, g := range got {
			units[g.name] = g.unit
		}
		for _, d := range decl {
			u, ok := units[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is declared but not reported", mode, d.Name)
			case u != d.Unit:
				t.Errorf("%s: %s declared in %s, reported in %s", mode, d.Name, d.Unit, u)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s: better must be lower or higher, not %q", mode, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) {
				t.Errorf("%s: %s: bound present = %v, want %v", mode, d.Name, d.Bound != nil, bounded)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v outside (0, 0.25]", mode, d.Name, *d.Bound)
			}
			delete(units, d.Name)
		}
		for name := range units {
			t.Errorf("%s: %s is reported but not declared", mode, name)
		}
	}
	compare("end_to_end", m.EndToEnd, e2e, true)
	compare("per_layer", m.PerLayer, layer, false)

	var setupBound, maxBound float64
	for _, d := range m.EndToEnd {
		if d.Name == "setup_s" {
			setupBound = *d.Bound
		}
		maxBound = max(maxBound, *d.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v, want the largest (%v)", setupBound, maxBound)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why of %d chars) does not match %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", m.RunSeconds)
	}
}
