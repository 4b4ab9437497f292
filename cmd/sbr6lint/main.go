// Command sbr6lint statically enforces the simulator's determinism and
// state-ownership invariants over the sim-path packages: no map-order
// dependence (maprange), no wall clock or global RNG (walltime), no
// random-number package beside internal/draw (simrng), and no package-global
// mutable state (globalstate). See the "Static analysis" section of the
// README for what each check guards and how to annotate exceptions.
//
// Usage:
//
//	sbr6lint [packages]          analyze packages (default ./...)
//	sbr6lint -list-allows [dir]  inventory every effective //sbr6: annotation
//	                             (non-test files of the scoped packages)
//
// The tool also speaks the `go vet -vettool` protocol, so CI runs it as
//
//	go vet -vettool=$(which sbr6lint) ./...
//
// and the bare `sbr6lint ./...` form is sugar for exactly that
// invocation (the go command does the package loading and caching).
package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"sbr6/internal/lint/analyzers"
	"sbr6/internal/lint/unitchecker"
)

func main() {
	args := os.Args[1:]

	// go vet protocol: version/flag probes, then one .cfg per package.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("sbr6lint version devel buildID=%x\n", executableHash())
			return
		}
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]") // the suite exposes no analyzer flags
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitchecker.Run(args[0], analyzers.All, analyzers.Scoped))
	}

	if len(args) > 0 && (args[0] == "-list-allows" || args[0] == "--list-allows") {
		root := "."
		if len(args) > 1 {
			root = args[1]
		}
		os.Exit(listAllows(root))
	}

	// Standalone form: delegate loading, caching and dependency export
	// data to the go command by re-invoking it with ourselves as vettool.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbr6lint: locating own executable: %v\n", err)
		os.Exit(1)
	}
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "sbr6lint: running go vet: %v\n", err)
		os.Exit(1)
	}
}

// executableHash content-hashes the running binary so the go command's
// vet result cache is keyed by the actual analyzer code: rebuilding the
// tool invalidates prior results, an unchanged tool reuses them.
func executableHash() []byte {
	sum := sha256.Sum256(nil)
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum = sha256.Sum256(data)
		}
	}
	return sum[:8]
}

// listAllows prints every //sbr6: annotation that has effect — in
// non-test files of the scoped sim-path packages — one per line, so
// reviewers and the CI step summary can audit the full exception surface
// at a glance. Mentions elsewhere (the lint framework's own docs and
// fixtures, test files, which Reportf never flags) are not exceptions
// and are excluded.
func listAllows(root string) int {
	var lines []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if !analyzers.ScopedDir(filepath.Dir(path)) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			line := sc.Text()
			if i := strings.Index(line, "//sbr6:"); i >= 0 {
				lines = append(lines, fmt.Sprintf("%s:%d: %s", path, n, strings.TrimSpace(line[i:])))
			}
		}
		return sc.Err()
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbr6lint: %v\n", err)
		return 1
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Printf("%d sbr6 annotation(s)\n", len(lines))
	return 0
}
