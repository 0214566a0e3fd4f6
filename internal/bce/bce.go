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
// The build cache replays these diagnostics on cached rebuilds, so
// collection is cheap after the first run and needs no cache-busting.
package bce

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one normalized bounds-check site: a slash-separated
// module-relative file path, position, and the check kind the compiler
// reported (IsInBounds or IsSliceInBounds).
type Finding struct {
	File string
	Line int
	Col  int
	Kind string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", f.File, f.Line, f.Col, f.Kind)
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
// root and returns the merged, sorted inventory. The per-package
// -gcflags spelling scopes the debug flag to the listed package alone,
// so dependencies compile quietly.
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

// sortFindings orders findings by file, line, column, kind — the canonical
// baseline order.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Kind < b.Kind
	})
}

// Format renders findings as the baseline file: one finding per line,
// sorted, trailing newline, with a header comment explaining how to
// regenerate.
func Format(fs []Finding) string {
	var b strings.Builder
	b.WriteString("# Bounds checks the compiler could not eliminate in the kernel packages.\n")
	b.WriteString("# Regenerate with: go run ./cmd/bcecheck -update\n")
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Parse reads a baseline produced by Format, skipping blank lines and
// "#" comments. Malformed lines are dropped rather than failing the
// gate: a hand-mangled baseline then surfaces as a diff.
func Parse(s string) []Finding {
	var findings []Finding
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pos, kind, ok := strings.Cut(line, ": ")
		if !ok || (kind != "IsInBounds" && kind != "IsSliceInBounds") {
			continue
		}
		f, err := parseLine(pos+": Found "+kind, kind)
		if err != nil {
			continue
		}
		findings = append(findings, f)
	}
	sortFindings(findings)
	return findings
}

// Diff compares the baseline against the current inventory as multisets
// — one position can carry several checks (inlined copies), and growing
// from one to two is a regression too. It returns the findings added
// (present now, beyond the baseline's count) and removed (vice versa),
// both sorted.
func Diff(baseline, current []Finding) (added, removed []Finding) {
	base := map[Finding]int{}
	for _, f := range baseline {
		base[f]++
	}
	for _, f := range current {
		if base[f] > 0 {
			base[f]--
			continue
		}
		added = append(added, f)
	}
	for f, n := range base {
		for ; n > 0; n-- {
			removed = append(removed, f)
		}
	}
	sortFindings(added)
	sortFindings(removed)
	return added, removed
}
