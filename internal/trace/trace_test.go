package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCounters(t *testing.T) {
	m := NewMetrics()
	m.Inc(TxBytesTotal, 10)
	m.Inc(TxBytesTotal, 5)
	m.Add1(RxFrames)
	if m.Get("tx.bytes.total") != 15 || m.Get("rx.frames") != 1 {
		t.Fatalf("counters wrong: %v %v", m.Get("tx.bytes.total"), m.Get("rx.frames"))
	}
	if m.Get("crypto.sign") != 0 {
		t.Fatal("a declared counter never bumped should read zero")
	}
	names := m.CounterNames()
	if len(names) != 2 || names[0] != "rx.frames" || names[1] != "tx.bytes.total" {
		t.Fatalf("CounterNames = %v", names)
	}
}

// TestCounterBumpedByZeroIsListed: a counter bumped by zero reads 0 but
// still appears, as it did when every bump created a map entry.
func TestCounterBumpedByZeroIsListed(t *testing.T) {
	m := NewMetrics()
	m.Inc(RouteInvalidated, 0)
	if got := m.CounterNames(); !reflect.DeepEqual(got, []string{"route.invalidated"}) {
		t.Fatalf("CounterNames = %v, want [route.invalidated]", got)
	}
	if m.Get("route.invalidated") != 0 {
		t.Fatal("a counter bumped by zero should read zero")
	}
	if got := NewMetrics().CounterNames(); got == nil || len(got) != 0 {
		t.Fatalf("an empty sink's CounterNames = %#v, want an empty list", got)
	}
}

// TestCountersWalkNameOrder: Counters yields the bumped counters in
// CounterNames's order with the values Get and Value read, a counter
// bumped by zero included, and stops when the loop breaks.
func TestCountersWalkNameOrder(t *testing.T) {
	m := NewMetrics()
	m.Inc(TxBytesTotal, 7)
	m.Add1(RxFrames)
	m.Inc(RouteInvalidated, 0)
	var names []string
	for c, v := range m.Counters() {
		names = append(names, c.String())
		if v != m.Get(c.String()) || v != m.Value(c) {
			t.Fatalf("%s yields %v, Get reads %v, Value reads %v", c, v, m.Get(c.String()), m.Value(c))
		}
	}
	if want := m.CounterNames(); !reflect.DeepEqual(names, want) {
		t.Fatalf("Counters walks %v, CounterNames lists %v", names, want)
	}
	n := 0
	for range m.Counters() {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("Counters yielded %d times after a break", n)
	}
}

// TestGetUndeclaredReadsZero pins the contract sbr6.Node.Metric passes on:
// a name outside the schema reads 0, whatever the sink holds.
func TestGetUndeclaredReadsZero(t *testing.T) {
	m := NewMetrics()
	for c := Counter(0); c < numCounters; c++ {
		m.Add1(c)
	}
	for _, name := range []string{"never", "", "rx.frame", "tx.type(99)", "RX.FRAMES"} {
		if got := m.Get(name); got != 0 {
			t.Errorf("Get(%q) = %v, want 0", name, got)
		}
	}
}

func TestSamples(t *testing.T) {
	m := NewMetrics()
	for _, v := range []float64{5, 1, 3, 2, 4} {
		m.Observe("lat", v)
	}
	m.Inc(TxBytesTotal, 1)
	got := m.DrainSamples()
	if !reflect.DeepEqual(got, map[string][]float64{"lat": {5, 1, 3, 2, 4}}) {
		t.Fatalf("DrainSamples = %v, want the series in observation order", got)
	}
	if again := m.DrainSamples(); len(again) != 0 {
		t.Fatalf("second DrainSamples = %v, want nothing", again)
	}
	if m.Get("tx.bytes.total") != 1 {
		t.Fatal("draining samples touched a counter")
	}
}

// TestDrainSamplesEmptyAllocatesNothing: sessions drain every node at
// every window barrier, and most nodes hold no samples.
func TestDrainSamplesEmptyAllocatesNothing(t *testing.T) {
	m := NewMetrics()
	m.Add1(RxFrames)
	m.Observe("lat", 1)
	m.DrainSamples()
	if allocs := testing.AllocsPerRun(100, func() {
		if m.DrainSamples() != nil {
			t.Fatal("an empty sink drained samples")
		}
	}); allocs != 0 {
		t.Fatalf("DrainSamples of an empty sink made %v allocations, want 0", allocs)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Inc(CryptoSign, 1)
	b.Inc(CryptoSign, 2)
	b.Inc(CryptoVerify, 3)
	a.Observe("s", 1)
	b.Observe("s", 3)
	a.Merge(b)
	if a.Get("crypto.sign") != 3 || a.Get("crypto.verify") != 3 {
		t.Fatalf("merged counters wrong")
	}
	if got := a.DrainSamples()["s"]; !reflect.DeepEqual(got, []float64{1, 3}) {
		t.Fatalf("merged samples = %v, want [1 3]", got)
	}
}

// TestMergeSumsInSinkOrder merges several sinks and requires every
// counter to equal the per-name float sum taken in sink order, which is
// not the same sum in every order, and the union of the names.
func TestMergeSumsInSinkOrder(t *testing.T) {
	vals := [][]float64{{0.1, 1e16, 3}, {0.2, 1, 0}, {0.3, -1e16, 5}}
	sinks := make([]*Metrics, len(vals))
	for i, vs := range vals {
		sinks[i] = NewMetrics()
		sinks[i].Inc(TxBytesData, vs[0])
		sinks[i].Inc(TxBytesControl, vs[1])
		if vs[2] != 0 {
			sinks[i].Inc(RxFrames, vs[2])
		}
	}
	merged := NewMetrics()
	for _, s := range sinks {
		merged.Merge(s)
	}
	for name, col := range map[string]int{"tx.bytes.data": 0, "tx.bytes.control": 1, "rx.frames": 2} {
		want := 0.0
		for _, vs := range vals {
			want += vs[col]
		}
		if got := merged.Get(name); got != want {
			t.Errorf("merged %s = %v, want the sink-order sum %v", name, got, want)
		}
	}
	if got, want := merged.CounterNames(), []string{"rx.frames", "tx.bytes.control", "tx.bytes.data"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged CounterNames = %v, want %v", got, want)
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
