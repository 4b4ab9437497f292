// Package analysistest runs an analyzer over a fixture package and
// checks its findings against `// want` comments, the same contract as
// golang.org/x/tools/go/analysis/analysistest (rebuilt on the stdlib
// because that module is unavailable in this build environment).
//
// A fixture line expecting a finding carries a trailing comment of the
// form
//
//	// want `regexp`
//
// Every reported diagnostic must match a want-pattern on its line and
// every want-pattern must be matched by at least one diagnostic — so a
// disabled or vacuous analyzer fails the suite by leaving wants
// unmatched, which is the non-vacuity proof the fixtures exist for.
//
// Fixtures importing the stdlib type-check straight from GOROOT. An
// analyzer that matches symbols of an sbr6-internal package (e.g.
// directverify on sbr6/internal/identity) cannot import the real package
// from a fixture — the source importer resolves only GOROOT — so the
// fixture imports a *stub*: a minimal same-path package under
// testdata/stub/<import-path>/ that declares just the matched symbols.
// The analyzers match import path + name, never behavior, so a stub
// exercises the production matcher exactly.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"sbr6/internal/lint/analysis"
)

// Run analyzes testdata/src/<fixture> relative to the caller's package
// directory and enforces the want-comments. It returns the diagnostics
// for any extra assertions the caller wants to make.
func Run(t *testing.T, a *analysis.Analyzer, fixture string) []analysis.Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	fset := token.NewFileSet()
	files, sources := parseFixture(t, fset, dir)

	// Fixtures import the stdlib (type-checked straight from GOROOT, no
	// export data needed) plus any stub packages under testdata/stub.
	stubs := &stubImporter{
		base: importer.ForCompiler(fset, "source", nil),
		dir:  filepath.Join("testdata", "stub"),
		fset: fset,
		pkgs: make(map[string]*types.Package),
	}
	conf := types.Config{
		Importer: stubs,
		Error:    func(error) {}, // collected via the returned error
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := conf.Check(fixture, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}

	pass := analysis.NewPass(a, fset, files, pkg, info)
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	diags := pass.Diagnostics()
	checkWants(t, a, fset, sources, diags)
	return diags
}

// parseFixture parses every .go file in dir, returning the ASTs and the
// raw sources keyed by file name (for want-comment extraction).
func parseFixture(t *testing.T, fset *token.FileSet, dir string) ([]*ast.File, map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	sources := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture file: %v", err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture file: %v", err)
		}
		files = append(files, f)
		sources[path] = src
	}
	if len(files) == 0 {
		t.Fatalf("fixture dir %s holds no .go files", dir)
	}
	return files, sources
}

// stubImporter resolves stdlib imports through the source importer and
// everything else from testdata/stub/<import-path>/, so fixtures can
// call into same-path stand-ins for sbr6-internal packages.
type stubImporter struct {
	base types.Importer
	dir  string
	fset *token.FileSet
	pkgs map[string]*types.Package
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := si.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(si.dir, filepath.FromSlash(path))
	if _, err := os.Stat(dir); err != nil {
		return si.base.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(si.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("stub package %s holds no .go files", dir)
	}
	conf := types.Config{Importer: si} // stubs may import the stdlib or other stubs
	pkg, err := conf.Check(path, si.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking stub %s: %w", dir, err)
	}
	si.pkgs[path] = pkg
	return pkg, nil
}

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// checkWants cross-checks diagnostics against the fixtures' `// want`
// comments, failing the test on unexpected or missing findings.
func checkWants(t *testing.T, a *analysis.Analyzer, fset *token.FileSet, sources map[string][]byte, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	var wantKeys []key
	for path, src := range sources {
		for i, lineText := range strings.Split(string(src), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(lineText, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				k := key{path, i + 1}
				wants[k] = append(wants[k], re)
				wantKeys = append(wantKeys, k)
			}
		}
	}

	matched := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		ok := false
		for _, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[re] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: unexpected %s diagnostic: %s", pos, a.Name, d.Message)
		}
	}
	sort.Slice(wantKeys, func(i, j int) bool {
		if wantKeys[i].file != wantKeys[j].file {
			return wantKeys[i].file < wantKeys[j].file
		}
		return wantKeys[i].line < wantKeys[j].line
	})
	for _, k := range wantKeys {
		for _, re := range wants[k] {
			if !matched[re] {
				t.Errorf("%s:%d: want-pattern %q matched no %s diagnostic (vacuous check?)", k.file, k.line, re, a.Name)
			}
		}
	}
}
