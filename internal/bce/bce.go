// Package bce collects the Go compiler's bounds-check-elimination
// inventory for a set of packages and diffs it against a golden
// baseline. cmd/bcecheck is the CLI; the package exists so the
// parse/normalize/diff logic is unit-testable without invoking the
// compiler.
//
// The compiler's -d=ssa/check_bce debug flag prints one line per
// bounds check that survives optimization:
//
//	internal/core/rightmul.go:142:18: Found IsInBounds
//
// A position alone is a poor key: an edit that shifts a file's lines
// moves every check below it without changing one. So a finding is keyed
// by what survives a shift — its file, the function that encloses it
// (receiver-qualified), the check kind, and the source text of the
// index, slice or call expression at the reported position — and the
// baseline holds each key once, with its count. The position is kept
// only to report a new check where it is.
//
// The build cache replays these diagnostics on cached rebuilds, so
// collection is cheap after the first run and needs no cache-busting.
package bce

import (
	"bytes"
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Finding is one bounds check: a slash-separated module-relative file
// path, the position the compiler reported (zero for one read from a
// baseline), and its key's other fields.
type Finding struct {
	File string
	Line int
	Col  int
	Func string // enclosing function: "f", "(T).m" or "(*T).m"; "" at file scope
	Kind string // IsInBounds or IsSliceInBounds
	Expr string // source text of the expression at the position, whitespace collapsed
}

// key is the part of a finding a line shift does not move.
type key struct{ File, Func, Kind, Expr string }

// key returns f's key.
func (f Finding) key() key { return key{f.File, f.Func, f.Kind, f.Expr} }

func (f Finding) String() string {
	at := f.File
	if f.Line > 0 {
		at = fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
	}
	return fmt.Sprintf("%s: %s %s: %s", at, f.Func, f.Kind, f.Expr)
}

// ModuleRoot resolves the root directory of the main module containing
// dir ("" = current directory).
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("bce: go list -m: %v\n%s", err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// Collect compiles each package with -d=ssa/check_bce from the module
// root and returns the merged, sorted inventory, every finding located
// in its source. The per-package -gcflags spelling scopes the debug flag
// to the listed package alone, so dependencies compile quietly.
func Collect(root string, pkgs []string) ([]Finding, error) {
	var all []Finding
	for _, pkg := range pkgs {
		cmd := exec.Command("go", "build", "-o", "/dev/null",
			"-gcflags="+pkg+"=-d=ssa/check_bce", pkg)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("bce: build %s: %v\n%s", pkg, err, stderr.String())
		}
		found, err := parseCompilerOutput(stderr.String())
		if err != nil {
			return nil, fmt.Errorf("bce: %s: %w", pkg, err)
		}
		all = append(all, found...)
	}
	if err := locateAll(root, all); err != nil {
		return nil, err
	}
	sortFindings(all)
	return all, nil
}

// parseCompilerOutput extracts the "Found Is(Slice)InBounds" lines from
// one compiler invocation's stderr, tolerating the "# pkg" banners and
// any unrelated diagnostics interleaved with them.
func parseCompilerOutput(out string) ([]Finding, error) {
	var findings []Finding
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		kind, ok := checkKind(line)
		if !ok {
			continue
		}
		// Compiler-synthesized wrappers (method-value thunks and the
		// like) report position "<autogenerated>:1" — not a source site
		// anyone can fix, and their set shifts with unrelated inlining
		// decisions, so they stay out of the baseline.
		if strings.HasPrefix(line, "<autogenerated>") {
			continue
		}
		f, err := parseLine(line, kind)
		if err != nil {
			return nil, err
		}
		findings = append(findings, f)
	}
	return findings, nil
}

// checkKind classifies a compiler diagnostic line, returning the check
// kind when the line reports a surviving bounds check.
func checkKind(line string) (string, bool) {
	switch {
	case strings.HasSuffix(line, "Found IsInBounds"):
		return "IsInBounds", true
	case strings.HasSuffix(line, "Found IsSliceInBounds"):
		return "IsSliceInBounds", true
	}
	return "", false
}

// parseLine splits "path:line:col: Found <kind>" into a Finding,
// normalizing the path to slashes so baselines are OS-independent.
func parseLine(line, kind string) (Finding, error) {
	pos, _, ok := strings.Cut(line, ": Found ")
	if !ok {
		return Finding{}, fmt.Errorf("malformed check_bce line %q", line)
	}
	// Split off :col and :line from the right; the path may contain
	// drive-letter colons on Windows.
	i := strings.LastIndexByte(pos, ':')
	j := strings.LastIndexByte(pos[:max(i, 0)], ':')
	if i < 0 || j < 0 {
		return Finding{}, fmt.Errorf("malformed position in %q", line)
	}
	var lineNo, colNo int
	if _, err := fmt.Sscanf(pos[j+1:], "%d:%d", &lineNo, &colNo); err != nil {
		return Finding{}, fmt.Errorf("malformed position in %q: %v", line, err)
	}
	return Finding{
		File: filepath.ToSlash(pos[:j]),
		Line: lineNo,
		Col:  colNo,
		Kind: kind,
	}, nil
}

// locateAll fills in the Func and Expr of every finding from the source
// files under root, parsing each file once.
func locateAll(root string, fs []Finding) error {
	files := map[string]*sourceFile{}
	for k := range fs {
		f := &fs[k]
		src, ok := files[f.File]
		if !ok {
			var err error
			if src, err = parseSource(filepath.Join(root, filepath.FromSlash(f.File))); err != nil {
				return err
			}
			files[f.File] = src
		}
		f.Func, f.Expr = src.locate(f.Line, f.Col)
	}
	return nil
}

// sourceFile is one parsed Go file.
type sourceFile struct {
	fset *token.FileSet
	file *ast.File
	src  []byte
}

func parseSource(path string) (*sourceFile, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bce: %w", err)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("bce: %w", err)
	}
	return &sourceFile{fset: fset, file: file, src: src}, nil
}

// locate returns the function enclosing line:col and the source text of
// the innermost index, slice or call expression whose bracket or
// parenthesis is there — the compiler reports a check at the bracket of
// the expression it guards, and one an inlined callee carries at the
// call's parenthesis. A position that opens no such expression keys on
// the rest of its line.
func (s *sourceFile) locate(line, col int) (fn, expr string) {
	tf := s.fset.File(s.file.Pos())
	if line < 1 || line > tf.LineCount() {
		return "", ""
	}
	lineStart := tf.LineStart(line)
	pos := lineStart + token.Pos(col-1)
	var best ast.Node
	ast.Inspect(s.file, func(n ast.Node) bool {
		if n == nil || n.Pos() > pos || pos >= n.End() {
			return n == s.file
		}
		if d, ok := n.(*ast.FuncDecl); ok {
			fn = funcName(d)
		}
		var open token.Pos
		switch e := n.(type) {
		case *ast.IndexExpr:
			open = e.Lbrack
		case *ast.IndexListExpr:
			open = e.Lbrack
		case *ast.SliceExpr:
			open = e.Lbrack
		case *ast.CallExpr:
			open = e.Lparen
		}
		if open == pos {
			best = n
		}
		return true
	})
	if best != nil {
		return fn, collapse(s.src[s.offset(best.Pos()):s.offset(best.End())])
	}
	end := bytes.IndexByte(s.src[s.offset(pos):], '\n')
	if end < 0 {
		end = len(s.src) - s.offset(pos)
	}
	return fn, collapse(s.src[s.offset(pos) : s.offset(pos)+end])
}

func (s *sourceFile) offset(p token.Pos) int { return s.fset.Position(p).Offset }

// funcName is a declaration's receiver-qualified name: "f", "(T).m" or
// "(*T).m", type parameters of the receiver dropped.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t, star := d.Recv.List[0].Type, ""
	if p, ok := t.(*ast.StarExpr); ok {
		t, star = p.X, "*"
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := "?"
	if id, ok := t.(*ast.Ident); ok {
		name = id.Name
	}
	return "(" + star + name + ")." + d.Name.Name
}

// collapse returns src with every run of white space one space, so that
// neither a tab nor a line break can reach a baseline field.
func collapse(src []byte) string { return strings.Join(strings.Fields(string(src)), " ") }

// sortFindings orders findings by key, then position — the canonical
// baseline order.
func sortFindings(fs []Finding) {
	slices.SortStableFunc(fs, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), strings.Compare(a.Func, b.Func), strings.Compare(a.Kind, b.Kind),
			strings.Compare(a.Expr, b.Expr), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col))
	})
}

// Format renders findings as the baseline file: one line per key, in
// key order, with a header comment explaining the format and how to
// regenerate. A line's fields are tab-separated: file, function, kind,
// expression, and how many checks carry that key.
func Format(fs []Finding) string {
	var b strings.Builder
	b.WriteString("# Bounds checks the compiler could not eliminate in the kernel packages.\n")
	b.WriteString("# Regenerate with: go run ./cmd/bcecheck -update\n")
	b.WriteString("# file<TAB>function<TAB>kind<TAB>expression<TAB>count\n")
	sorted := append([]Finding(nil), fs...)
	sortFindings(sorted)
	for k := 0; k < len(sorted); {
		at, n := sorted[k].key(), 0
		for ; k < len(sorted) && sorted[k].key() == at; k++ {
			n++
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%d\n", at.File, at.Func, at.Kind, at.Expr, n)
	}
	return b.String()
}

// Parse reads a baseline produced by Format into one Finding per check,
// positions zero, skipping blank lines and "#" comments. Malformed lines
// are dropped rather than failing the gate: a hand-mangled baseline then
// surfaces as a diff.
func Parse(s string) []Finding {
	var findings []Finding
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 5 || (f[2] != "IsInBounds" && f[2] != "IsSliceInBounds") {
			continue
		}
		n, err := strconv.Atoi(f[4])
		if err != nil || n < 1 {
			continue
		}
		for ; n > 0; n-- {
			findings = append(findings, Finding{File: f[0], Func: f[1], Kind: f[2], Expr: f[3]})
		}
	}
	sortFindings(findings)
	return findings
}

// Diff compares the baseline against the current inventory as multisets
// of keys — one key can carry several checks (inlined copies, or one
// expression written twice), and growing from one to two is a
// regression too. It returns the findings added (present now, beyond
// the baseline's count for their key) and removed (vice versa), both
// sorted.
func Diff(baseline, current []Finding) (added, removed []Finding) {
	base := map[key]int{}
	for _, f := range baseline {
		base[f.key()]++
	}
	for _, f := range current {
		if base[f.key()] > 0 {
			base[f.key()]--
			continue
		}
		added = append(added, f)
	}
	for _, f := range baseline {
		if base[f.key()] > 0 {
			base[f.key()]--
			removed = append(removed, f)
		}
	}
	sortFindings(added)
	sortFindings(removed)
	return added, removed
}
