package trace

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestCounterSchema checks the declared names and holds README's
// "Counters" table to them: every declared name is non-empty and unique,
// and the table's counters column lists exactly the declared names.
func TestCounterSchema(t *testing.T) {
	declared := map[string]bool{}
	for c, name := range counterNames {
		if name == "" {
			t.Errorf("counter %d has no name", c)
		}
		if declared[name] {
			t.Errorf("counter name %q declared twice", name)
		}
		declared[name] = true
		if got := Counter(c).String(); got != name {
			t.Errorf("Counter(%d).String() = %q, want %q", c, got, name)
		}
	}

	all := NewMetrics()
	for c := Counter(0); c < numCounters; c++ {
		all.Inc(c, 0)
	}
	names := all.CounterNames()
	if len(names) != len(declared) || !sort.StringsAreSorted(names) {
		t.Errorf("a sink with every counter bumped lists %d names (sorted: %v), want all %d, sorted",
			len(names), sort.StringsAreSorted(names), len(declared))
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "## Counters: one declared schema\n"
	text := string(readme)
	start := strings.Index(text, heading)
	if start < 0 {
		t.Fatalf("README has no %q section", strings.TrimSpace(heading))
	}
	section := text[start+len(heading):]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	code := regexp.MustCompile("`([^`]+)`")
	listed := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 4 || strings.TrimSpace(cols[1]) == "group" || strings.HasPrefix(strings.TrimSpace(cols[1]), "-") {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(cols[2], -1) {
			if listed[m[1]] {
				t.Errorf("README lists %q twice", m[1])
			}
			listed[m[1]] = true
		}
	}
	var missing, extra []string
	for name := range declared {
		if !listed[name] {
			missing = append(missing, name)
		}
	}
	for name := range listed {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Fatalf("README's counter table and the schema differ: declared but not listed %v; listed but not declared %v", missing, extra)
	}
}
