// Command benchdiff is CI's kernel-speed gate, and the way to measure
// any Go benchmark of a change against its parent. It runs the two
// sides' `go test -c` binaries alternately, pairs times, one
// -test.count 1 run of benchtime each, the parent first in even pairs:
//
//	benchdiff [-bench re] parent.test change.test
//
// A row is a benchmark name less "Benchmark" and "-<GOMAXPROCS>". It is
// gated on ns/nnz when both sides report it (BenchmarkKernelsVsDEN's own
// time of the compressed plan, which DEN's code layout does not move),
// else on ns/op. benchdiff prints the median of the per-pair ratios,
// change over parent, how many pairs the change was faster, the exact
// one-sided sign-test p that it is slower (ties count for neither side)
// and the per-side medians of the row's ungated metrics. A row fails when
// its median ratio is above 1 + threshold with p < alpha, or when either
// side does not report it. Exit status: 0 when every row passes, 1 when
// one fails, 2 on a usage error, a binary that exits non-zero or a
// pattern that matches nothing.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// pairs, benchtime and threshold come from parent-against-parent
// sessions of BenchmarkKernelsVsDEN on a shared 2-core box, where a
// row's time in one run sits at one of two levels about 1.6× apart.
// 200 ms runs put a pair's two runs of a row seconds apart instead of
// ten, and 40 pairs of them take less time than 20 of the default 1 s.
// In those sessions one row's median ratio reached 1.17 (24 of 40 pairs
// slower) and another's sign test p 0.003 (at 1.035), so neither test
// alone is the gate; one extra pass over A·v's decode tree (+17%) fails.
const (
	pairs     = 40
	benchtime = "200ms"
	threshold = 0.10
	alpha     = 0.05
)

// rows is one run's results: row name, then unit, then value.
type rows map[string]map[string]float64

// parse reads `go test -bench` output. Lines that are not benchmark
// results are skipped; a result value that is not a number is an error.
func parse(r io.Reader) (rows, error) {
	out := rows{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a log line, not a result
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		units := map[string]float64{}
		// f[1] is the iteration count; value-unit pairs follow.
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad %s %q", name, f[i+1], f[i])
			}
			units[f[i+1]] = v
		}
		out[name] = units
	}
	return out, sc.Err()
}

// median returns the median of xs, the mean of the middle two for an
// even count.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// signP is the exact one-sided sign-test p of k or more of n untied pairs
// going one way: the sum of C(n, i) / 2^n over i >= k.
func signP(k, n int) float64 {
	c, p := 1.0, 0.0 // c is C(n, i)
	for i := 0; i <= n; i++ {
		if i >= k {
			p += c
		}
		c = c * float64(n-i) / float64(i+1)
	}
	return p / math.Exp2(float64(n))
}

// verdict is one row's comparison.
type verdict struct {
	name, unit string
	ratio      float64 // median of the per-pair ratios, change over parent; 0 if not compared
	faster, n  int     // pairs in which the change was faster, of n
	p          float64 // one-sided sign-test p that the change is slower
	fail       string  // why the row fails, empty when it passes
	others     string  // per-side medians of the ungated metrics
}

// compare judges every row either side reports; runs[s][i] is side s's
// run in pair i, the parent's for s = 0.
func compare(runs [2][]rows) []verdict {
	names := map[string]bool{}
	for _, side := range runs {
		for _, r := range side {
			for name := range r {
				names[name] = true
			}
		}
	}
	var out []verdict
	for _, name := range slices.Sorted(maps.Keys(names)) {
		out = append(out, judge(name, runs))
	}
	return out
}

func judge(name string, runs [2][]rows) verdict {
	v := verdict{name: name, unit: "ns/nnz", n: len(runs[0])}
	for s, side := range runs {
		for i, r := range side {
			if r[name] == nil {
				v.fail = fmt.Sprintf("the %s does not report it in pair %d", [2]string{"parent", "change"}[s], i)
				return v
			}
			if _, ok := r[name]["ns/nnz"]; !ok {
				v.unit = "ns/op"
			}
		}
	}
	ratios, slower := make([]float64, v.n), 0
	for i := range ratios {
		ratios[i] = runs[1][i][name][v.unit] / runs[0][i][name][v.unit]
		switch {
		case ratios[i] < 1:
			v.faster++
		case ratios[i] > 1:
			slower++
		}
	}
	v.ratio, v.p = median(ratios), signP(slower, v.faster+slower)
	if v.ratio > 1+threshold && v.p < alpha {
		v.fail = fmt.Sprintf("%s ratio %.3f is above %.2f, %d of %d pairs slower, p %.3g",
			v.unit, v.ratio, 1+threshold, slower, v.n, v.p)
	}
	for _, unit := range slices.Sorted(maps.Keys(runs[0][0][name])) {
		if unit != v.unit && unit != "ns/op" {
			var med [2]float64
			for s, side := range runs {
				var xs []float64
				for _, r := range side {
					xs = append(xs, r[name][unit])
				}
				med[s] = median(xs)
			}
			v.others += fmt.Sprintf("  %s %.4g -> %.4g", unit, med[0], med[1])
		}
	}
	return v
}

// bench runs one binary once on the pattern and parses what it prints.
func bench(bin, pattern string) (rows, error) {
	abs, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(abs, "-test.run", "^$", "-test.bench", pattern, "-test.count", "1",
		"-test.benchtime", benchtime, "-test.timeout", "10m")
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", bin, err, out.Bytes())
	}
	return parse(&out)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pattern := fs.String("bench", ".", "the -test.bench pattern both binaries run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-bench re] parent.test change.test")
		return 2
	}
	var runs [2][]rows
	for i := 0; i < pairs; i++ {
		for _, s := range [2]int{i % 2, 1 - i%2} {
			r, err := bench(fs.Arg(s), *pattern)
			if err != nil {
				fmt.Fprintf(stderr, "benchdiff: %v\n", err)
				return 2
			}
			runs[s] = append(runs[s], r)
		}
		fmt.Fprintf(stderr, "benchdiff: pair %d of %d done\n", i+1, pairs)
	}
	verdicts := compare(runs)
	if len(verdicts) == 0 {
		fmt.Fprintf(stderr, "benchdiff: -bench %q matched no benchmark\n", *pattern)
		return 2
	}
	failed := 0
	for _, v := range verdicts {
		if v.ratio > 0 {
			fmt.Fprintf(stdout, "benchdiff: %-28s %s ratio %.3f, faster %d of %d, p %.3g%s\n",
				v.name, v.unit, v.ratio, v.faster, v.n, v.p, v.others)
		}
		if v.fail != "" {
			fmt.Fprintf(stderr, "benchdiff: FAIL %s: %s\n", v.name, v.fail)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d rows pass: none is above %.2f with p < %.2f over %d pairs\n",
		len(verdicts), 1+threshold, alpha, pairs)
	return 0
}
