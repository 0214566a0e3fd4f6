// Command bcecheck is the hot-loop bounds-check gate: it compiles the
// kernel packages with -d=ssa/check_bce, normalizes the compiler's
// bounds-check inventory, and diffs it against the committed golden
// baseline (BCE_BASELINE.txt at the module root).
//
// The decode and multiply kernels in internal/core and internal/bitpack
// are written so the compiler can prove their index expressions in
// bounds; a new IsInBounds/IsSliceInBounds site means a kernel loop
// regressed into per-element checking, which silently costs throughput
// without failing any test. The gate turns that into a CI failure.
//
// Usage:
//
//	bcecheck              # diff against the baseline; exit 1 on any change
//	bcecheck -update      # rewrite the baseline to match the current tree
//	bcecheck -o out.txt   # also write the normalized inventory to a file
//
// The baseline keys a check by file, enclosing function, kind and the
// source text of the expression it guards, with a count per key (see
// package bce), so an edit that only shifts lines leaves it alone. A
// legitimate change (a new kernel, a rewritten loop) is recorded by
// running bcecheck -update and committing the refreshed baseline, whose
// diff then shows only the checks that changed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"toc/internal/bce"
)

// kernelPackages are the import paths whose bounds-check inventory is
// pinned. Keep in sync with the README's "Static analysis" section.
var kernelPackages = []string{
	"toc/internal/core",
	"toc/internal/bitpack",
}

func main() {
	baselineFlag := flag.String("baseline", "", "baseline file (default BCE_BASELINE.txt at the module root)")
	update := flag.Bool("update", false, "rewrite the baseline from the current tree instead of diffing")
	out := flag.String("o", "", "also write the normalized inventory to this file")
	flag.Parse()

	root, err := bce.ModuleRoot("")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcecheck: %v\n", err)
		os.Exit(2)
	}
	baseline := *baselineFlag
	if baseline == "" {
		baseline = filepath.Join(root, "BCE_BASELINE.txt")
	}

	findings, err := bce.Collect(root, kernelPackages)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcecheck: %v\n", err)
		os.Exit(2)
	}
	report := bce.Format(findings)

	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bcecheck: %v\n", err)
			os.Exit(2)
		}
	}
	if *update {
		if err := os.WriteFile(baseline, []byte(report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bcecheck: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("bcecheck: baseline updated: %d bounds checks in %v\n", len(findings), kernelPackages)
		return
	}

	want, err := os.ReadFile(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcecheck: read baseline: %v (run bcecheck -update to create it)\n", err)
		os.Exit(2)
	}
	added, removed := bce.Diff(bce.Parse(string(want)), findings)
	if len(added) == 0 && len(removed) == 0 {
		fmt.Printf("bcecheck: ok: %d bounds checks match %s\n", len(findings), baseline)
		return
	}
	for _, f := range added {
		fmt.Printf("+ %s\n", f)
	}
	for _, f := range removed {
		fmt.Printf("- %s\n", f)
	}
	fmt.Fprintf(os.Stderr,
		"bcecheck: bounds-check inventory changed: %d added, %d removed vs %s\n"+
			"new checks mean a kernel loop lost its bounds-check elimination; fix the loop,\n"+
			"or run bcecheck -update and commit the baseline if the change is intentional\n",
		len(added), len(removed), baseline)
	os.Exit(1)
}
