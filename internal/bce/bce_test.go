package bce

import (
	"reflect"
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
		{File: "internal/core/a.go", Line: 3, Col: 7, Kind: "IsInBounds"},
		{File: "internal/core/a.go", Line: 3, Col: 7, Kind: "IsInBounds"}, // duplicate survives
		{File: "internal/bitpack/b.go", Line: 9, Col: 2, Kind: "IsSliceInBounds"},
	}
	sortFindings(fs)
	got := Parse(Format(fs))
	if !reflect.DeepEqual(got, fs) {
		t.Errorf("Parse(Format(fs)) = %v, want %v", got, fs)
	}
}

func TestParseSkipsCommentsAndJunk(t *testing.T) {
	got := Parse("# header\n\nnot a finding\ninternal/x.go:1:2: IsInBounds\n")
	want := []Finding{{File: "internal/x.go", Line: 1, Col: 2, Kind: "IsInBounds"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Parse = %v, want %v", got, want)
	}
}

func TestDiff(t *testing.T) {
	a := Finding{File: "a.go", Line: 1, Col: 1, Kind: "IsInBounds"}
	b := Finding{File: "b.go", Line: 2, Col: 2, Kind: "IsSliceInBounds"}
	c := Finding{File: "c.go", Line: 3, Col: 3, Kind: "IsInBounds"}

	added, removed := Diff([]Finding{a, b}, []Finding{a, c})
	if !reflect.DeepEqual(added, []Finding{c}) {
		t.Errorf("added = %v, want [%v]", added, c)
	}
	if !reflect.DeepEqual(removed, []Finding{b}) {
		t.Errorf("removed = %v, want [%v]", removed, b)
	}
}

func TestDiffMultiset(t *testing.T) {
	a := Finding{File: "a.go", Line: 1, Col: 1, Kind: "IsInBounds"}
	// The same site gaining a second check (an inlined copy) is a
	// regression even though the position already appears.
	added, removed := Diff([]Finding{a}, []Finding{a, a})
	if !reflect.DeepEqual(added, []Finding{a}) {
		t.Errorf("added = %v, want [%v]", added, a)
	}
	if len(removed) != 0 {
		t.Errorf("removed = %v, want none", removed)
	}
}

func TestDiffEqual(t *testing.T) {
	a := Finding{File: "a.go", Line: 1, Col: 1, Kind: "IsInBounds"}
	added, removed := Diff([]Finding{a, a}, []Finding{a, a})
	if len(added) != 0 || len(removed) != 0 {
		t.Errorf("diff of identical multisets = +%v -%v", added, removed)
	}
}
