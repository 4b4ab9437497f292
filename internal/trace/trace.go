// Package trace collects simulation metrics — counters and sample
// series — and formats the result tables the benchmark harness prints.
// Counters are declared: the schema in counters.go gives each one a
// Counter ID and a name, every bump site names its ID, and a sink keeps
// them in one array, so a bump hashes nothing. Names remain for reading:
// Get and CounterNames answer by name, and a name outside the schema
// reads 0. Sample series keep free-form names and are only collected
// here: a scenario drains them into its bounded aggregates
// (scenario.SampleAgg), which every result reads.
package trace

import (
	"fmt"
	"io"
	"iter"
	"math"
	"math/bits"
	"strings"
)

// Metrics accumulates the declared counters and named sample sets. The
// zero value is an empty sink, as is NewMetrics's.
type Metrics struct {
	counts [numCounters]float64
	// bumped marks the counters ever bumped, by zero included: those are
	// the ones CounterNames lists.
	bumped  [(numCounters + 63) / 64]uint64
	samples map[string][]float64 // nil until the first Observe
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics { return &Metrics{} }

// Inc adds v to counter c.
func (m *Metrics) Inc(c Counter, v float64) {
	m.counts[c] += v
	m.bumped[c>>6] |= 1 << (c & 63)
}

// Add1 increments counter c by one.
func (m *Metrics) Add1(c Counter) { m.Inc(c, 1) }

// Get returns the named counter's value: zero when it was never bumped or
// when the schema declares no counter of that name.
func (m *Metrics) Get(name string) float64 {
	c, ok := counterIDs[name]
	if !ok {
		return 0
	}
	return m.counts[c]
}

// Observe appends a sample to the named distribution.
func (m *Metrics) Observe(name string, v float64) {
	if m.samples == nil {
		m.samples = make(map[string][]float64)
	}
	m.samples[name] = append(m.samples[name], v)
}

// DrainSamples removes and returns every sample series, leaving the
// counters untouched; it returns nil, allocating nothing, when the sink
// holds no samples. Long-lived sessions call it at window barriers so
// sample slices (per-delivery latencies, DAD durations) never accumulate
// across an open-ended run; callers fold the drained slices into bounded
// cumulative aggregates. Each name's slice keeps its observation order,
// and the per-name folds are independent, so consuming the returned map
// in any order is deterministic.
func (m *Metrics) DrainSamples() map[string][]float64 {
	out := m.samples
	m.samples = nil
	return out
}

// Merge adds other's counters and samples into m: each counter is m's
// value plus other's, and other's sample series follow m's.
func (m *Metrics) Merge(other *Metrics) {
	for c, v := range other.counts {
		m.counts[c] += v
	}
	for w, b := range other.bumped {
		m.bumped[w] |= b
	}
	for k, s := range other.samples {
		if m.samples == nil {
			m.samples = make(map[string][]float64)
		}
		m.samples[k] = append(m.samples[k], s...)
	}
}

// CounterNames returns the names of the counters ever bumped, sorted.
func (m *Metrics) CounterNames() []string {
	n := 0
	for _, w := range m.bumped {
		n += bits.OnesCount64(w)
	}
	names := make([]string, 0, n)
	for c := range m.Counters() {
		names = append(names, counterNames[c])
	}
	return names
}

// Counters yields each counter ever bumped with its value, sorted by
// name as CounterNames lists them.
func (m *Metrics) Counters() iter.Seq2[Counter, float64] {
	return func(yield func(Counter, float64) bool) {
		for _, c := range byName {
			if m.bumped[c>>6]&(1<<(c&63)) != 0 && !yield(c, m.counts[c]) {
				return
			}
		}
	}
}

// Value returns counter c's value, zero when it was never bumped.
func (m *Metrics) Value(c Counter) float64 { return m.counts[c] }

// Table is a simple fixed-width text table used by the experiment harness.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string

	wall []int // columns measured in wall-clock time, which Ledger masks
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; short rows are padded with empty cells.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Addf appends a row of formatted values: each argument is rendered with %v
// except float64, which is rendered compactly.
func (t *Table) Addf(values ...any) {
	cells := make([]string, 0, len(values))
	for _, v := range values {
		switch x := v.(type) {
		case float64:
			cells = append(cells, FormatFloat(x))
		default:
			cells = append(cells, fmt.Sprintf("%v", v))
		}
	}
	t.Add(cells...)
}

// Fprint renders the table to w.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// WallClock marks columns as wall-clock measurements, whose cells differ
// from run to run, and returns t.
func (t *Table) WallClock(cols ...int) *Table {
	t.wall = append(t.wall, cols...)
	return t
}

// Ledger renders the table like String, with every wall-clock cell
// printed as "~", so two runs of one experiment render identically.
func (t *Table) Ledger() string {
	c := *t
	c.Rows = make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		c.Rows[i] = append([]string(nil), row...)
		for _, col := range t.wall {
			if col < len(row) {
				c.Rows[i][col] = "~"
			}
		}
	}
	return c.String()
}

// CSV renders the table as comma-separated values (no quoting; cells are
// numeric or simple identifiers).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FormatFloat renders a float compactly: integers without decimals,
// otherwise three significant decimals.
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
