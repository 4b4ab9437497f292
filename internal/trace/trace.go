// Package trace collects simulation metrics — counters and sample
// series — and formats the result tables the benchmark harness prints.
// Sample series are only collected here: a scenario drains them into its
// bounded aggregates (scenario.SampleAgg), which every result reads.
// Counter names are free-form strings so experiments can define their own
// taxonomy without touching this package.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Metrics accumulates named counters and sample sets. The zero value is not
// usable; call NewMetrics.
type Metrics struct {
	counters map[string]float64
	samples  map[string][]float64
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]float64), samples: make(map[string][]float64)}
}

// Inc adds v to the named counter.
func (m *Metrics) Inc(name string, v float64) { m.counters[name] += v }

// Add1 increments the named counter by one.
func (m *Metrics) Add1(name string) { m.counters[name]++ }

// Get returns the counter's value (zero when never incremented).
func (m *Metrics) Get(name string) float64 { return m.counters[name] }

// Observe appends a sample to the named distribution.
func (m *Metrics) Observe(name string, v float64) {
	m.samples[name] = append(m.samples[name], v)
}

// DrainSamples removes and returns every sample series, leaving the
// counters untouched. Long-lived sessions call it at window barriers so
// sample slices (per-delivery latencies, DAD durations) never accumulate
// across an open-ended run; callers fold the drained slices into bounded
// cumulative aggregates. Each name's slice keeps its observation order,
// and the per-name folds are independent, so consuming the returned map
// in any order is deterministic.
func (m *Metrics) DrainSamples() map[string][]float64 {
	out := m.samples
	m.samples = make(map[string][]float64)
	return out
}

// Merge adds other's counters and samples into m.
func (m *Metrics) Merge(other *Metrics) {
	for k, v := range other.counters {
		m.counters[k] += v
	}
	for k, s := range other.samples {
		m.samples[k] = append(m.samples[k], s...)
	}
}

// CounterNames returns all counter names, sorted.
func (m *Metrics) CounterNames() []string {
	names := make([]string, 0, len(m.counters))
	for k := range m.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

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
