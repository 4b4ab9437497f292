package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCounters(t *testing.T) {
	m := NewMetrics()
	m.Inc("bytes", 10)
	m.Inc("bytes", 5)
	m.Add1("packets")
	if m.Get("bytes") != 15 || m.Get("packets") != 1 {
		t.Fatalf("counters wrong: %v %v", m.Get("bytes"), m.Get("packets"))
	}
	if m.Get("never") != 0 {
		t.Fatal("unknown counter should read zero")
	}
	names := m.CounterNames()
	if len(names) != 2 || names[0] != "bytes" || names[1] != "packets" {
		t.Fatalf("CounterNames = %v", names)
	}
}

func TestSamples(t *testing.T) {
	m := NewMetrics()
	for _, v := range []float64{5, 1, 3, 2, 4} {
		m.Observe("lat", v)
	}
	m.Inc("bytes", 1)
	got := m.DrainSamples()
	if !reflect.DeepEqual(got, map[string][]float64{"lat": {5, 1, 3, 2, 4}}) {
		t.Fatalf("DrainSamples = %v, want the series in observation order", got)
	}
	if again := m.DrainSamples(); len(again) != 0 {
		t.Fatalf("second DrainSamples = %v, want nothing", again)
	}
	if m.Get("bytes") != 1 {
		t.Fatal("draining samples touched a counter")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Inc("x", 1)
	b.Inc("x", 2)
	b.Inc("y", 3)
	a.Observe("s", 1)
	b.Observe("s", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merged counters wrong")
	}
	if got := a.DrainSamples()["s"]; !reflect.DeepEqual(got, []float64{1, 3}) {
		t.Fatalf("merged samples = %v, want [1 3]", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.Add("alpha", "1")
	tb.Addf("beta", 2.5)
	tb.Addf("gamma", 3.0)
	out := tb.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "beta", "2.500", "gamma", "3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: each line has the same prefix width for column 2.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Add("only")
	if len(tb.Rows[0]) != 3 {
		t.Fatal("short row not padded")
	}
	if !strings.Contains(tb.String(), "only") {
		t.Fatal("row lost")
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Add("1", "2")
	tb.Add("3", "4")
	want := "a,b\n1,2\n3,4\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		3.5:    "3.500",
		0:      "0",
		-2:     "-2",
		0.1234: "0.123",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if FormatFloat(math.NaN()) != "-" {
		t.Error("NaN should render as dash")
	}
}

func TestTableLedgerMasksWallClock(t *testing.T) {
	tb := NewTable("t", "op", "us/op").WallClock(1)
	tb.Add("sign", "62.1")
	tb.Add("verify", "97.8")
	want := "== t ==\nop      us/op\n------  -----\nsign    ~\nverify  ~\n"
	if got := tb.Ledger(); got != want {
		t.Fatalf("Ledger = %q, want %q", got, want)
	}
	if !strings.Contains(tb.String(), "62.1") {
		t.Fatal("Ledger changed the table itself")
	}
}
