package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger.txt from this tree's output")

// ledger renders every experiment as `sbrbench -exp all` prints it, with
// wall-clock cells as "~" and without the completion-time lines, so two
// runs of one tree render byte-identical text.
func ledger(opt Options) string {
	var b strings.Builder
	for _, e := range All() {
		fmt.Fprintf(&b, "### %s — %s\n\n", e.ID, e.Title)
		for _, tb := range e.Run(opt) {
			b.WriteString(tb.Ledger())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestExperimentsLedger pins every experiment table to the committed
// ledger at zero tolerance: the full sweeps at `sbrbench -exp all`'s
// options. A change that moves a row refreshes the file with
//
//	go test ./internal/experiments -run TestExperimentsLedger -update
//
// and explains every moved row.
func TestExperimentsLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment's full sweep")
	}
	got := ledger(DefaultOptions())
	path := filepath.Join("testdata", "ledger.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiment ledger moved at line %d:\nwant: %s\ngot:  %s\n(refresh with -update and explain every moved row)", i+1, w, g)
		}
	}
}
