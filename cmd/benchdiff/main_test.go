package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// A test binary started with fakeEnv set is a fake bench binary: it
// prints the canned results of the scenario fakeEnv names instead of
// running tests, and appends its side, the base name it was started
// under ("parent" or "change"), to the file logEnv names.
const fakeEnv, logEnv = "BENCHDIFF_FAKE", "BENCHDIFF_FAKE_LOG"

func TestMain(m *testing.M) {
	if name := os.Getenv(fakeEnv); name != "" {
		os.Exit(fakeBench(name))
	}
	os.Exit(m.Run())
}

// header and footer are the lines around results that parse must skip:
// go test's preamble, a logged checksum and the verdict.
const header = "goos: linux\ngoarch: amd64\npkg: toc/internal/formats\ncpu: Some CPU @ 2.00GHz\n"
const footer = "--- BENCH: BenchmarkKernelsVsDEN/MulVec/full-2\n    bench_test.go:150: checksum c0dbe9e0a7957936\n" +
	"PASS\nok  \ttoc/internal/formats\t12.1s\n"

const a, b = "BenchmarkKernelsVsDEN/MulVec/full", "BenchmarkKernelsVsDEN/MatMul/sparse"
const ka, kb = "KernelsVsDEN/MulVec/full", "KernelsVsDEN/MatMul/sparse"

// line renders one go test -bench result line of a benchmark with its
// value-unit pairs.
func line(name string, metrics ...string) string {
	return name + "         \t     100\t   " + strings.Join(metrics, "\t   ") + "\n"
}

// nsOp renders a result line whose only metric is ns/op.
func nsOp(name string, x float64) string { return line(name, fmt.Sprintf("%g ns/op", x)) }

// pair is what each side prints in one pair of runs.
type pair struct{ parent, change string }

// pairsOf parses each pair's runs.
func pairsOf(t *testing.T, ps []pair) [2][]rows {
	t.Helper()
	var runs [2][]rows
	for _, p := range ps {
		for s, text := range []string{p.parent, p.change} {
			r, err := parse(strings.NewReader(header + text + footer))
			if err != nil {
				t.Fatal(err)
			}
			runs[s] = append(runs[s], r)
		}
	}
	return runs
}

// ratios are pairs in which the parent takes 1000 ns/op and the change
// xs[i] times that in pair i.
func ratios(name string, xs ...float64) []pair {
	ps := make([]pair, len(xs))
	for i, x := range xs {
		ps[i] = pair{nsOp(name, 1000), nsOp(name, 1000*x)}
	}
	return ps
}

// every is p in each of a gate's pairs.
func every(p pair) []pair { return slices.Repeat([]pair{p}, pairs) }

// rep is x repeated n times.
func rep(n int, x float64) []float64 { return slices.Repeat([]float64{x}, n) }

func cat(xs ...[]float64) []float64 { return slices.Concat(xs...) }

// gateCase is one comparison and the rows that must fail in it, sorted.
type gateCase struct {
	name  string
	pairs []pair
	fails []string
}

func runGate(t *testing.T, cases []gateCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var fails []string
			for _, v := range compare(pairsOf(t, c.pairs)) {
				if v.fail != "" {
					fails = append(fails, v.name)
				}
			}
			if !reflect.DeepEqual(fails, c.fails) {
				t.Errorf("failing rows %v, want %v", fails, c.fails)
			}
		})
	}
}

// The gate compares the median of the per-pair ratios, not the last
// pair's; strips the -GOMAXPROCS suffix; fails a row either side lacks.
func TestCompareGate(t *testing.T) {
	both := nsOp(a+"-2", 1000) + nsOp(b+"-2", 1000)
	gap := every(pair{nsOp(a+"-2", 1000), nsOp(a+"-2", 1000)})
	gap[7].change = ""
	runGate(t, []gateCase{
		{"odd count: the median fails though the last line passes",
			ratios(a+"-2", cat(rep(15, 1.3), rep(5, 0.9), []float64{1.05})...), []string{ka}},
		{"odd count: the median passes though the last line fails",
			ratios(a+"-2", cat(rep(15, 1.05), rep(5, 0.95), []float64{1.5})...), nil},
		{"even count: the mean of the middle two fails, the lower one passes",
			ratios(a+"-2", cat(rep(9, 1.02), []float64{1.08, 1.14}, rep(9, 1.2))...), []string{ka}},
		{"even count: the mean of the middle two passes, the upper one fails",
			ratios(a+"-2", cat(rep(9, 1.02), []float64{1.06, 1.12}, rep(9, 1.2))...), nil},
		{"the -GOMAXPROCS suffix is stripped", every(pair{nsOp(a+"-16", 1000), nsOp(a+"-2", 1000)}), nil},
		{"a GOMAXPROCS=1 row has no suffix", every(pair{nsOp(a, 1000), nsOp(a+"-2", 1000)}), nil},
		{"a missing row fails", every(pair{both, nsOp(a+"-2", 1000)}), []string{kb}},
		{"a row only the change reports fails", every(pair{nsOp(a+"-2", 1000), both}), []string{kb}},
		{"a row one side lacks in a single pair fails", gap, []string{ka}},
	})
}

// A time is lower-is-better: a rise fails only beyond 1 + threshold and
// in enough pairs for p < 0.05, a fall of any size passes.
func TestCompareLowerIsBetter(t *testing.T) {
	if threshold != 0.10 || alpha != 0.05 {
		t.Fatalf("cases are sized for threshold 0.10 and alpha 0.05, not %g and %g", threshold, alpha)
	}
	runGate(t, []gateCase{
		{"a fall of any size passes", ratios(a+"-2", rep(20, 0.2)...), nil},
		{"a rise within the threshold passes", ratios(a+"-2", rep(20, 1.08)...), nil},
		{"a rise beyond the threshold fails", ratios(a+"-2", rep(20, 1.25)...), []string{ka}},
		// 14 of 20 one way is p 0.0577, 15 of 20 is p 0.0207.
		{"a rise in 14 of 20 pairs passes", ratios(a+"-2", cat(rep(14, 1.3), rep(6, 0.9))...), nil},
		{"a rise in 15 of 20 pairs fails", ratios(a+"-2", cat(rep(15, 1.3), rep(5, 0.9))...), []string{ka}},
	})
}

// The sign test is exact and one-sided: p is the chance of k or more of
// n fair coin flips landing one way.
func TestSignTestP(t *testing.T) {
	for _, c := range []struct {
		k, n int
		want float64
	}{
		{9, 10, 11.0 / 1024}, {8, 10, 56.0 / 1024}, {10, 10, 1.0 / 1024},
		{0, 10, 1}, {0, 0, 1}, {15, 20, 21700.0 / 1048576},
	} {
		if got := signP(c.k, c.n); got != c.want {
			t.Errorf("signP(%d, %d) = %g, want %g", c.k, c.n, got, c.want)
		}
	}
}

// A tie counts for neither side: 9 slower and 1 tied pair is 9 of 9,
// p 1/512, not 9 of 10 (11/1024), and the tie is not a faster pair.
func TestTiesCountForNeitherSide(t *testing.T) {
	v := compare(pairsOf(t, ratios(a+"-2", cat(rep(9, 1.5), []float64{1})...)))[0]
	if v.p != 1.0/512 || v.faster != 0 || v.n != 10 {
		t.Errorf("p %g, faster %d of %d; want p %g, faster 0 of 10", v.p, v.faster, v.n, 1.0/512)
	}
}

// The gate is on the median of the per-pair ratios. Here the box slows
// from 1000 to 2000 ns/op during the session, between the two runs of
// pairs 9 and 10: the sides' medians are 1000 and 2000 (a ratio of 2),
// while 18 of 20 pairs tie (a median ratio of 1).
func TestMedianOfPairRatiosNotRatioOfMedians(t *testing.T) {
	parent := cat(rep(11, 1000), rep(9, 2000))
	change := cat(rep(9, 1000), rep(2, 2000), rep(9, 2000))
	ps := make([]pair, len(parent))
	for i := range ps {
		ps[i] = pair{nsOp(a, parent[i]), nsOp(a, change[i])}
	}
	v := compare(pairsOf(t, ps))[0]
	if v.ratio != 1 || v.fail != "" {
		t.Errorf("ratio %g (fail %q), want 1 and a pass", v.ratio, v.fail)
	}
}

// ns/nnz is gated when both sides report it, ns/op otherwise; the other
// metrics are printed per side and not gated.
func TestNsPerNnzTakesPrecedence(t *testing.T) {
	row := func(op, nnz float64) string {
		return line(a+"-2", fmt.Sprintf("%g ns/op", op), fmt.Sprintf("%g ns/nnz", nnz), "0.5 vs_den")
	}
	for _, c := range []struct {
		name           string
		parent, change string
		unit           string
		fails          bool
	}{
		{"ns/nnz rises, ns/op does not", row(1000, 1), row(1000, 1.5), "ns/nnz", true},
		{"ns/op rises, ns/nnz does not", row(1000, 1), row(1500, 1), "ns/nnz", false},
		{"only the change reports ns/nnz", nsOp(a+"-2", 1000), row(1500, 1), "ns/op", true},
	} {
		v := compare(pairsOf(t, every(pair{c.parent, c.change})))[0]
		if v.unit != c.unit || (v.fail != "") != c.fails {
			t.Errorf("%s: gated on %s (fail %q), want %s and fail %v", c.name, v.unit, v.fail, c.unit, c.fails)
		}
		if c.unit == "ns/nnz" && v.others != "  vs_den 0.5 -> 0.5" {
			t.Errorf("%s: others %q, want vs_den's medians", c.name, v.others)
		}
	}
}

// A result value that is not a number is an error, not a skipped line.
func TestParseRejectsBadValue(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-2 \t 10\t 5 ns/op\t 1.2.3 vs_den\n")); err == nil {
		t.Error("malformed vs_den parsed")
	}
}

// scenarios are the fake bench binaries' outputs: what side prints in its
// k-th run, and its exit status.
var scenarios = map[string]func(side string, k int) (string, int){
	"same": func(string, int) (string, int) {
		return line(a+"-2", "1000 ns/op", "1 ns/nnz", "0.9 vs_den") + nsOp(b+"-2", 2000), 0
	},
	"slower": func(side string, _ int) (string, int) {
		if side == "change" {
			return nsOp(a+"-2", 1500) + nsOp(b+"-2", 2000), 0
		}
		return nsOp(a+"-2", 1000) + nsOp(b+"-2", 2000), 0
	},
	"crash": func(side string, k int) (string, int) {
		if side == "change" && k == 2 {
			return "--- FAIL: BenchmarkKernelsVsDEN/MulVec/full\n    checksum 1 vs DEN 2\n", 1
		}
		return nsOp(a+"-2", 1000), 0
	},
	"empty": func(string, int) (string, int) { return "", 0 },
}

// fakeBench is the fake bench binary's main.
func fakeBench(name string) int {
	want := []string{"-test.run", "^$", "-test.bench", "KernelsVsDEN", "-test.count", "1",
		"-test.benchtime", benchtime, "-test.timeout", "10m"}
	if args := os.Args[1:]; !slices.Equal(args, want) {
		fmt.Fprintf(os.Stderr, "fake bench: args %q, want %q\n", args, want)
		return 3
	}
	side := filepath.Base(os.Args[0])
	log, err := os.ReadFile(os.Getenv(logEnv))
	if err != nil && !os.IsNotExist(err) {
		fmt.Fprintln(os.Stderr, err)
		return 3
	}
	k := 0 // side's earlier runs
	for _, s := range strings.Fields(string(log)) {
		if s == side {
			k++
		}
	}
	f, err := os.OpenFile(os.Getenv(logEnv), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil {
		_, err = fmt.Fprintln(f, side)
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 3
	}
	text, code := scenarios[name](side, k)
	fmt.Print(header + text + footer)
	return code
}

// gate runs benchdiff on fake parent and change binaries of a scenario
// and returns its exit status, its output and the sides in run order.
func gate(t *testing.T, scenario string) (int, string, []string) {
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []string{"parent", "change"} {
		if err := os.Symlink(exe, filepath.Join(dir, side)); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv(fakeEnv, scenario)
	t.Setenv(logEnv, filepath.Join(dir, "log"))
	// Under -race a binary sleeps a second as it exits, unless told not
	// to; a gate starts 2·pairs of them.
	t.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	var out bytes.Buffer
	code := run([]string{"-bench", "KernelsVsDEN", filepath.Join(dir, "parent"), filepath.Join(dir, "change")}, &out, &out)
	log, _ := os.ReadFile(filepath.Join(dir, "log"))
	return code, out.String(), strings.Fields(string(log))
}

// benchdiff runs each binary once a pair with -test.count 1 and its
// benchtime, the parent first in even pairs and the change first in odd
// ones.
func TestPairsAlternate(t *testing.T) {
	code, out, order := gate(t, "same")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	var want []string
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			want = append(want, "parent", "change")
		} else {
			want = append(want, "change", "parent")
		}
	}
	if !slices.Equal(order, want) {
		t.Errorf("run order %v, want %v", order, want)
	}
	for _, s := range []string{
		ka + "  ", fmt.Sprintf("ns/nnz ratio 1.000, faster 0 of %d, p 1  vs_den 0.9 -> 0.9", pairs),
		kb + " ", "ns/op ratio 1.000", "2 rows pass",
	} {
		if !strings.Contains(out, s) {
			t.Errorf("output lacks %q:\n%s", s, out)
		}
	}
}

// Exit status 1 is a failing row, 2 a usage error, a binary that exits
// non-zero (at once, with its output) or no rows at all; 0 is
// TestPairsAlternate's.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		scenario string
		code     int
		says     string
		runs     int
	}{
		{"slower", 1, fmt.Sprintf("FAIL %s: ns/op ratio 1.500 is above 1.10, %d of %[2]d pairs slower", ka, pairs), 2 * pairs},
		{"crash", 2, "change: exit status 1", 6},
		{"empty", 2, `-bench "KernelsVsDEN" matched no benchmark`, 2 * pairs},
	} {
		code, out, order := gate(t, c.scenario)
		if code != c.code || !strings.Contains(out, c.says) || len(order) != c.runs {
			t.Errorf("%s: exit %d after %d runs, want %d after %d saying %q:\n%s", c.scenario, code, len(order), c.code, c.runs, c.says, out)
		}
	}
	var out bytes.Buffer
	if code := run([]string{"parent.test"}, &out, &out); code != 2 || !strings.Contains(out.String(), "usage") {
		t.Errorf("one binary: exit %d, want 2 and usage:\n%s", code, out.String())
	}
}
