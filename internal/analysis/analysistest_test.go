package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// expectation is one "// want `regex`" comment: the fixture author's
// claim that the analyzer reports a matching diagnostic on that line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// runFixture loads testdata/<dir>, runs one analyzer over it, and
// compares the diagnostics against the fixture's want comments — the
// same contract as golang.org/x/tools' analysistest, minimized.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	path := filepath.Join("testdata", dir)
	pkg, err := LoadDir(path)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	pass := &Pass{Analyzer: a, Pkg: pkg}
	if err := a.Run(pass); err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, path, err)
	}

	wants := collectWants(t, path)
	matched := make([]bool, len(wants))
	for _, d := range pass.diags {
		ok := false
		for i, w := range wants {
			if matched[i] || filepath.Base(d.Pos.Filename) != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// collectWants parses the fixture's comments for want expectations.
func collectWants(t *testing.T, dir string) []expectation {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "// want ")
					if !ok {
						continue
					}
					rest = strings.TrimSpace(rest)
					if len(rest) < 2 || rest[0] != '`' || rest[len(rest)-1] != '`' {
						t.Fatalf("%s: want pattern must be back-quoted: %s", fset.Position(c.Pos()), c.Text)
					}
					re, err := regexp.Compile(rest[1 : len(rest)-1])
					if err != nil {
						t.Fatalf("%s: bad want pattern: %v", fset.Position(c.Pos()), err)
					}
					pos := fset.Position(c.Pos())
					wants = append(wants, expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

func TestGuardedByFixture(t *testing.T) { runFixture(t, GuardedBy, "guardedby") }

func TestDetCheckFixture(t *testing.T) { runFixture(t, DetCheck, "detcheck") }

// TestDetCheckAppliesOnlyToDetPackages pins the package filter: the
// analyzer must cover exactly the determinism-critical set.
func TestDetCheckAppliesOnlyToDetPackages(t *testing.T) {
	for _, pkg := range []string{
		"toc/internal/core", "toc/internal/engine", "toc/internal/ml", "toc/internal/checkpoint",
		"toc/internal/dist",
	} {
		if !DetCheck.Applies(pkg) {
			t.Errorf("DetCheck must apply to %s", pkg)
		}
	}
	for _, pkg := range []string{"toc/internal/storage", "toc/cmd/benchdiff"} {
		if DetCheck.Applies(pkg) {
			t.Errorf("DetCheck must not apply to %s", pkg)
		}
	}
}

// TestDirectives pins the "//toc:" comment syntax: no space after the
// slashes, name then arguments.
func TestDirectives(t *testing.T) {
	src := "// plain comment\n//toc:guardedby mu\n//toc:timing\n// toc:guardedby spaced (not a directive)\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package x\n"+src+"var V int\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var groups []*ast.CommentGroup
	groups = append(groups, f.Comments...)
	got := directives(groups...)
	want := []directive{
		{name: "guardedby", args: []string{"mu"}},
		{name: "timing", args: nil},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("directives = %v, want %v", got, want)
	}
	if !hasDirective("timing", groups...) {
		t.Error("hasDirective(timing) = false")
	}
	if args := directiveArgs("guardedby", groups...); len(args) != 1 || args[0] != "mu" {
		t.Errorf("directiveArgs(guardedby) = %v", args)
	}
}
