// Command benchdiff is CI's kernel-speed gate. It reads the text that
// `go test -bench KernelsVsDEN -count N` prints, takes each row's median
// vs_den over its N lines, and fails when a median rises above the
// committed BENCH_kernelspeed.json by more than max(20%, the row's
// recorded spread), or when a baselined row is missing.
//
// Usage:
//
//	go test -run '^$' -bench KernelsVsDEN -count 5 ./internal/formats > kernels.txt
//	benchdiff kernels.txt
//	benchdiff -update session1.txt session2.txt   # re-seed from two sessions
//
// vs_den (internal/formats' BenchmarkKernelsVsDEN) is a compressed
// kernel's time per nonzero over DEN's per dense element, paired batch
// by batch in one process, so it transfers across runners where absolute
// times do not; lower is better. A row not yet in the baseline is a
// notice (a ::notice annotation under GitHub Actions), never a failure.
//
// -update pools the lines of its files, one session each: a row's
// baseline median is over every line, and its spread is the range of
// those lines over that median, both rounded to three decimals. A row
// can hold one level for a whole session and another in the next, so the
// range of single lines, not of two session medians, is what covers the
// box's noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

const (
	baselinePath = "BENCH_kernelspeed.json"
	metric       = "vs_den"
	tolerance    = 0.2
)

// baseline is the committed BENCH_kernelspeed.json.
type baseline struct {
	// Notes records how and where the rows were measured; benchdiff
	// keeps it across -update and otherwise ignores it.
	Notes string         `json:"notes,omitempty"`
	Rows  map[string]row `json:"rows"`
}

// row is one benchmark's committed median and the range of the lines it
// was seeded from, relative to that median.
type row struct {
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`
}

// parse reads `go test -bench` output and returns every vs_den value per
// row, in the order printed. A row is the benchmark name without its
// "Benchmark" prefix and "-<GOMAXPROCS>" suffix; lines that are not
// benchmark results, and results without vs_den, are skipped.
func parse(r io.Reader) (map[string][]float64, error) {
	rows := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// f[1] is the iteration count; value-unit pairs follow.
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] != metric {
				continue
			}
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad %s %q", name, metric, f[i])
			}
			rows[name] = append(rows[name], v)
		}
	}
	return rows, sc.Err()
}

// median returns the median of xs, the mean of the middle two for an
// even count.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// gate returns a failure per baselined row that is missing from current
// or whose median rose beyond its tolerance, and a notice per row of
// current the baseline does not have.
func gate(b *baseline, current map[string][]float64) (failures, notices []string) {
	for _, name := range sortedKeys(b.Rows) {
		base := b.Rows[name]
		vals := current[name]
		if len(vals) == 0 {
			failures = append(failures, fmt.Sprintf("%s: baselined row missing", name))
			continue
		}
		tol := math.Max(tolerance, base.Spread)
		if got := median(vals); got > base.Median*(1+tol) {
			failures = append(failures, fmt.Sprintf("%s: %s %.3f is >%.0f%% above baseline %.3f",
				name, metric, got, tol*100, base.Median))
		}
	}
	for _, name := range sortedKeys(current) {
		if _, ok := b.Rows[name]; !ok {
			notices = append(notices, fmt.Sprintf("%s: not in baseline (run -update to adopt)", name))
		}
	}
	return failures, notices
}

// seed builds a baseline row from each row's pooled lines.
func seed(lines map[string][]float64) map[string]row {
	round := func(x float64) float64 { return math.Round(x*1000) / 1000 }
	rows := map[string]row{}
	for name, vals := range lines {
		m := median(vals)
		rows[name] = row{Median: round(m), Spread: round((slices.Max(vals) - slices.Min(vals)) / m)}
	}
	return rows
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}

// parseFiles pools the rows of every file.
func parseFiles(paths []string) (map[string][]float64, error) {
	rows := map[string][]float64{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		s, err := parse(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		for name, vals := range s {
			rows[name] = append(rows[name], vals...)
		}
	}
	return rows, nil
}

func readBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &b, nil
}

// update rewrites the baseline at path from session files, keeping its
// notes when it exists.
func update(path string, files []string) error {
	b, err := readBaseline(path)
	if os.IsNotExist(err) {
		b, err = &baseline{}, nil
	}
	if err != nil {
		return err
	}
	lines, err := parseFiles(files)
	if err != nil {
		return err
	}
	b.Rows = seed(lines)
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	doUpdate := flag.Bool("update", false, "rewrite "+baselinePath+" from the files, one session each, instead of gating")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if flag.NArg() == 0 {
		fail(fmt.Errorf("no go test -bench output given"))
	}
	if *doUpdate {
		if err := update(baselinePath, flag.Args()); err != nil {
			fail(err)
		}
		fmt.Printf("benchdiff: wrote %s from %d sessions\n", baselinePath, flag.NArg())
		return
	}

	b, err := readBaseline(baselinePath)
	if err != nil {
		fail(err)
	}
	current, err := parseFiles(flag.Args())
	if err != nil {
		fail(err)
	}
	for _, name := range sortedKeys(current) {
		fmt.Printf("benchdiff: %-26s %s median %.3f over %d\n", name, metric, median(current[name]), len(current[name]))
	}
	failures, notices := gate(b, current)
	for _, n := range notices {
		notice(n)
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d rows within max(%.0f%%, spread) of %s\n", len(b.Rows), tolerance*100, baselinePath)
}

// notice prints an informational line — as a ::notice workflow
// annotation under GitHub Actions (surfaced on the run summary without
// failing anything), as a plain line elsewhere.
func notice(msg string) {
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		fmt.Printf("::notice title=benchdiff::%s\n", msg)
		return
	}
	fmt.Printf("benchdiff: %s\n", msg)
}
