package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// results renders one go test -bench result line per value, the way
// `go test -bench -count N` prints a row N times.
func results(name string, vals ...float64) string {
	var sb strings.Builder
	for i, v := range vals {
		fmt.Fprintf(&sb, "%s         \t     %d\t   %d ns/op\t         %g vs_den\n", name, 100+i, 1000000+i, v)
	}
	return sb.String()
}

// header and footer are the lines around results that the reader must
// skip: go test's preamble, a -count line's logged checksum, a result
// with no vs_den, and the verdict.
const header = "goos: linux\ngoarch: amd64\npkg: toc/internal/formats\ncpu: Some CPU @ 2.00GHz\n"
const footer = "--- BENCH: BenchmarkKernelsVsDEN/MulVec/full-2\n    bench_test.go:143: checksum c0dbe9e0a7957936\n" +
	"BenchmarkOther-2   \t  10\t  500 ns/op\nPASS\nok  \ttoc/internal/formats\t42.1s\n"

const a, b = "BenchmarkKernelsVsDEN/MulVec/full", "BenchmarkKernelsVsDEN/MatMul/sparse"
const ka, kb = "KernelsVsDEN/MulVec/full", "KernelsVsDEN/MatMul/sparse"

// gateCase is one gate run: a baseline, the go test -bench text of the
// current run and the rows it must fail and notice.
type gateCase struct {
	name    string
	base    map[string]row
	text    string
	fails   []string // rows that fail, sorted
	notices []string // rows noticed, sorted
}

// The gate compares each row's median, not its last line; strips the
// -GOMAXPROCS suffix; fails a missing row and only notices a new one.
func TestCompareGate(t *testing.T) {
	flat := map[string]row{ka: {Median: 1}}
	runGate(t, []gateCase{
		{"odd count: the median fails though the last line passes", flat,
			results(a+"-2", 1.30, 1.25, 1.00), []string{ka}, nil},
		{"odd count: the median passes though the last line fails", flat,
			results(a+"-2", 1.10, 1.00, 1.50), nil, nil},
		{"even count: the mean of the middle two fails, the lower one passes", flat,
			results(a+"-2", 1.26, 1.00, 1.50, 1.16), []string{ka}, nil},
		{"even count: the mean of the middle two passes, the upper one fails", flat,
			results(a+"-2", 1.28, 1.50, 1.00, 1.10), nil, nil},
		{"the -GOMAXPROCS suffix is stripped", flat,
			results(a+"-16", 1.0), nil, nil},
		{"a GOMAXPROCS=1 row has no suffix", flat,
			results(a, 1.0), nil, nil},
		{"a missing row fails", map[string]row{ka: {Median: 1}, kb: {Median: 2}},
			results(a+"-2", 1.0), []string{kb}, nil},
		{"an un-baselined row is only a notice", flat,
			results(a+"-2", 1.0) + results(b+"-2", 9.0), nil, []string{kb}},
	})
}

// vs_den is lower-is-better: a rise beyond max(20%, spread) fails, a fall
// of any size passes.
func TestCompareLowerIsBetter(t *testing.T) {
	runGate(t, []gateCase{
		{"the tolerance is 20% when the spread is narrower", map[string]row{ka: {Median: 1, Spread: 0.1}},
			results(a+"-2", 1.15), nil, nil},
		{"a rise beyond 20% fails when the spread is narrower", map[string]row{ka: {Median: 1, Spread: 0.1}},
			results(a+"-2", 1.25), []string{ka}, nil},
		{"the tolerance is the spread when it is wider", map[string]row{ka: {Median: 1, Spread: 0.4}},
			results(a+"-2", 1.35), nil, nil},
		{"a rise beyond the spread fails", map[string]row{ka: {Median: 1, Spread: 0.4}},
			results(a+"-2", 1.45), []string{ka}, nil},
		{"a fall of any size passes", map[string]row{ka: {Median: 1}},
			results(a+"-2", 0.2), nil, nil},
	})
}

func runGate(t *testing.T, cases []gateCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			current, err := parse(strings.NewReader(header + c.text + footer))
			if err != nil {
				t.Fatal(err)
			}
			failures, notices := gate(&baseline{Rows: c.base}, current)
			if got := rowsOf(failures); !reflect.DeepEqual(got, c.fails) {
				t.Errorf("failing rows %v, want %v (%q)", got, c.fails, failures)
			}
			if got := rowsOf(notices); !reflect.DeepEqual(got, c.notices) {
				t.Errorf("noticed rows %v, want %v (%q)", got, c.notices, notices)
			}
		})
	}
}

// rowsOf returns the row name each gate message starts with.
func rowsOf(msgs []string) []string {
	var rows []string
	for _, m := range msgs {
		rows = append(rows, m[:strings.IndexByte(m, ':')])
	}
	return rows
}

// A vs_den that is not a number is an error, not a skipped line.
func TestParseRejectsBadValue(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-2 \t 10\t 5 ns/op\t 1.2.3 vs_den\n")); err == nil {
		t.Error("malformed vs_den parsed")
	}
}

// -update pools both sessions: the median is over every line of both, the
// spread is the range of those lines over it, the notes survive and rows
// no session has go.
func TestUpdateFromTwoSessions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(path, []byte(`{"notes": "seeded on X", "rows": {"Gone": {"median": 3, "spread": 0}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s1, s2 := filepath.Join(dir, "s1.txt"), filepath.Join(dir, "s2.txt")
	// Lines 1.0 to 1.4, pooled median 1.2; each session's median (1.1,
	// 1.3) and last line are off it.
	for file, text := range map[string]string{
		s1: results("BenchmarkK/MulVec/full-2", 1.0, 1.1, 1.2, 1.1, 1.0),
		s2: results("BenchmarkK/MulVec/full-2", 1.3, 1.4, 1.3, 1.2, 1.4),
	} {
		if err := os.WriteFile(file, []byte(header+text+footer), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := update(path, []string{s1, s2}); err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Notes != "seeded on X" {
		t.Errorf("notes %q not kept", b.Notes)
	}
	if len(b.Rows) != 1 {
		t.Fatalf("rows %v, want only K/MulVec/full", b.Rows)
	}
	got := b.Rows["K/MulVec/full"]
	if want := (row{Median: 1.2, Spread: 0.333}); got != want {
		t.Errorf("row %+v, want %+v", got, want)
	}
}
