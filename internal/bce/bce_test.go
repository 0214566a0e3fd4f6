package bce

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseCompilerOutput(t *testing.T) {
	out := `# toc/internal/core
internal/core/rightmul.go:48:4: Found IsInBounds
internal/core/rightmul.go:45:18: Found IsSliceInBounds
<autogenerated>:1: Found IsSliceInBounds
internal/core/rightmul.go:48:4: some unrelated diagnostic
`
	got, err := parseCompilerOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []Finding{
		{File: "internal/core/rightmul.go", Line: 48, Col: 4, Kind: "IsInBounds"},
		{File: "internal/core/rightmul.go", Line: 45, Col: 18, Kind: "IsSliceInBounds"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseCompilerOutput = %v, want %v", got, want)
	}
}

func TestParseCompilerOutputMalformed(t *testing.T) {
	if _, err := parseCompilerOutput("nonsense: Found IsInBounds\n"); err == nil {
		t.Error("expected error for a position-free diagnostic")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	fs := []Finding{
		{File: "internal/core/a.go", Func: "(*Batch).f", Kind: "IsInBounds", Expr: "h[row[0]]"},
		{File: "internal/core/a.go", Func: "(*Batch).f", Kind: "IsInBounds", Expr: "h[row[0]]"}, // duplicate survives
		{File: "internal/bitpack/b.go", Func: "g", Kind: "IsSliceInBounds", Expr: "src[4*k:]"},
		{File: "internal/bitpack/b.go", Func: "", Kind: "IsInBounds", Expr: "table[i]"},
	}
	sortFindings(fs)
	text := Format(fs)
	if n := strings.Count(text, "h[row[0]]\t2\n"); n != 1 {
		t.Errorf("the duplicated key is not one line with count 2:\n%s", text)
	}
	got := Parse(text)
	if !reflect.DeepEqual(got, fs) {
		t.Errorf("Parse(Format(fs)) = %v, want %v", got, fs)
	}
}

func TestParseSkipsCommentsAndJunk(t *testing.T) {
	got := Parse("# header\n\nnot a finding\ninternal/x.go\tf\tIsInBounds\tv[i]\t1\n" +
		"internal/x.go\tf\tIsInBounds\tv[i]\tmany\ninternal/x.go:1:2: IsInBounds\n")
	want := []Finding{{File: "internal/x.go", Func: "f", Kind: "IsInBounds", Expr: "v[i]"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Parse = %v, want %v", got, want)
	}
}

func TestDiff(t *testing.T) {
	a := Finding{File: "a.go", Func: "f", Kind: "IsInBounds", Expr: "x[i]"}
	b := Finding{File: "b.go", Func: "g", Kind: "IsSliceInBounds", Expr: "x[i:]"}
	c := Finding{File: "c.go", Func: "h", Kind: "IsInBounds", Expr: "x[j]"}

	added, removed := Diff([]Finding{a, b}, []Finding{a, c})
	if !reflect.DeepEqual(added, []Finding{c}) {
		t.Errorf("added = %v, want [%v]", added, c)
	}
	if !reflect.DeepEqual(removed, []Finding{b}) {
		t.Errorf("removed = %v, want [%v]", removed, b)
	}
}

func TestDiffMultiset(t *testing.T) {
	a := Finding{File: "a.go", Func: "f", Kind: "IsInBounds", Expr: "x[i]"}
	// The same key gaining a second check (an inlined copy) is a
	// regression even though the key already appears.
	added, removed := Diff([]Finding{a}, []Finding{a, a})
	if !reflect.DeepEqual(added, []Finding{a}) {
		t.Errorf("added = %v, want [%v]", added, a)
	}
	if len(removed) != 0 {
		t.Errorf("removed = %v, want none", removed)
	}
}

func TestDiffEqual(t *testing.T) {
	a := Finding{File: "a.go", Func: "f", Kind: "IsInBounds", Expr: "x[i]"}
	added, removed := Diff([]Finding{a, a}, []Finding{a, a})
	if len(added) != 0 || len(removed) != 0 {
		t.Errorf("diff of identical multisets = +%v -%v", added, removed)
	}
}

// locateSource is a file whose checks Locate keys: an index, a slice
// spread over two lines, a call an inlined check reports at, and a
// position that opens none of them.
const locateSource = `package p

type T struct{ h []float64 }

func (t *T) sum(row []uint32) (s float64) {
	for _, n := range row {
		s += t.h[n]
	}
	return s
}

func tail(b []byte, k int) []byte {
	return b[k:
		len(b)]
}

func call(b []byte) byte { return first(b) }

func first(b []byte) byte { return b[0] }
`

func writeSource(t *testing.T, dir, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLocateKeysBySource(t *testing.T) {
	dir := t.TempDir()
	writeSource(t, dir, locateSource)
	fs := []Finding{
		{File: "p.go", Line: 7, Col: 11, Kind: "IsInBounds"},
		{File: "p.go", Line: 13, Col: 10, Kind: "IsSliceInBounds"},
		{File: "p.go", Line: 17, Col: 40, Kind: "IsInBounds"},
		{File: "p.go", Line: 6, Col: 2, Kind: "IsInBounds"},
	}
	if err := locateAll(dir, fs); err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"(*T).sum", "t.h[n]"}, {"tail", "b[k: len(b)]"}, {"call", "first(b)"}, {"(*T).sum", "for _, n := range row {"}}
	for k, f := range fs {
		if got := [2]string{f.Func, f.Expr}; got != want[k] {
			t.Errorf("finding %d at %d:%d keys on %q, want %q", k, f.Line, f.Col, got, want[k])
		}
	}
}

// A pure line shift moves every position and no key: the shifted
// inventory diffs clean against the baseline of the original.
func TestDiffSurvivesLineShift(t *testing.T) {
	dir := t.TempDir()
	writeSource(t, dir, locateSource)
	at := []Finding{{File: "p.go", Line: 7, Col: 11, Kind: "IsInBounds"}, {File: "p.go", Line: 13, Col: 10, Kind: "IsSliceInBounds"}}
	if err := locateAll(dir, at); err != nil {
		t.Fatal(err)
	}
	baseline := Parse(Format(at))
	writeSource(t, dir, strings.Replace(locateSource, "package p\n", "package p\n\n// Three lines\n// of new comment.\n", 1))
	shifted := []Finding{{File: "p.go", Line: 10, Col: 11, Kind: "IsInBounds"}, {File: "p.go", Line: 16, Col: 10, Kind: "IsSliceInBounds"}}
	if err := locateAll(dir, shifted); err != nil {
		t.Fatal(err)
	}
	if added, removed := Diff(baseline, shifted); len(added) != 0 || len(removed) != 0 {
		t.Errorf("a line shift changed the inventory: +%v -%v", added, removed)
	}
}
