package main

import (
	"strings"
	"testing"

	"toc/internal/bench"
)

const sampleCSV = `experiment,config,workers,kernel_ms,speedup
rightmul,serial,1,100,1.00
rightmul,plan,8,38,2.63
experiment,kernel,variant,ns_per_nnz,vs_roofline
kernelspeed,MulVec,full,25,1.00
kernelspeed,MulVec,sparse,15,0.61
`

func parsed(t *testing.T) map[string]*table {
	t.Helper()
	tables, err := parseCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// The concatenated-table format must split into per-experiment tables,
// each keeping the header active when its rows appeared.
func TestParseCSVConcatenatedTables(t *testing.T) {
	tables := parsed(t)
	if len(tables) != 2 {
		t.Fatalf("parsed %d tables, want 2", len(tables))
	}
	if got := tables["rightmul"]; len(got.rows) != 2 || got.columns[3] != "speedup" {
		t.Errorf("rightmul table malformed: %+v", got)
	}
	if got := tables["kernelspeed"]; len(got.rows) != 2 || got.columns[3] != "vs_roofline" {
		t.Errorf("kernelspeed table malformed: %+v", got)
	}
	if _, err := parseCSV(strings.NewReader("rightmul,plan,8\n")); err == nil {
		t.Error("data row before any header should be an error")
	}
}

func speedupBaseline(rows map[string]float64) *baseline {
	return &baseline{
		Experiment: "rightmul",
		Metric:     "speedup",
		Direction:  "higher",
		Keys:       []string{"config", "workers"},
		Rows:       rows,
	}
}

// The gate trips on a >threshold drop of a higher-is-better metric, on a
// baselined row missing from the CSV — and on nothing else.
func TestCompareGate(t *testing.T) {
	tables := parsed(t)
	b := speedupBaseline(map[string]float64{"serial/1": 1.0, "plan/8": 2.6})
	current, err := metricRows(b, tables["rightmul"])
	if err != nil {
		t.Fatal(err)
	}
	if fails, _ := compare(b, current, 0.2); len(fails) != 0 {
		t.Errorf("within-threshold run failed the gate: %v", fails)
	}

	// 2.63 measured vs 3.4 committed is a 23% drop: regression.
	b.Rows["plan/8"] = 3.4
	fails, _ := compare(b, current, 0.2)
	if len(fails) != 1 || !strings.Contains(fails[0], "plan/8") {
		t.Errorf("23%% drop not caught: %v", fails)
	}
	// A per-baseline threshold override loosens the same comparison.
	b.Threshold = 0.5
	if fails, _ := compare(b, current, 0.2); len(fails) != 0 {
		t.Errorf("50%% baseline threshold still failed: %v", fails)
	}
	b.Threshold = 0

	// A dropped sweep point is a coverage regression.
	b.Rows = map[string]float64{"serial/1": 1.0, "plan/8": 2.6, "plan/16": 4.0}
	fails, _ = compare(b, current, 0.2)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Errorf("missing row not caught: %v", fails)
	}

	// Rows the baseline has not adopted yet are reported, never failed.
	b.Rows = map[string]float64{"serial/1": 1.0}
	fails, newRows := compare(b, current, 0.2)
	if len(fails) != 0 {
		t.Errorf("new row failed the gate: %v", fails)
	}
	if len(newRows) != 1 || newRows[0] != "plan/8" {
		t.Errorf("new rows = %v, want [plan/8]", newRows)
	}
}

// Lower-is-better metrics regress upward.
func TestCompareLowerIsBetter(t *testing.T) {
	tables := parsed(t)
	b := &baseline{
		Experiment: "kernelspeed",
		Metric:     "ns_per_nnz",
		Direction:  "lower",
		Keys:       []string{"kernel", "variant"},
		Rows:       map[string]float64{"MulVec/full": 25, "MulVec/sparse": 10},
	}
	current, err := metricRows(b, tables["kernelspeed"])
	if err != nil {
		t.Fatal(err)
	}
	// 15ns vs 10ns committed = 50% slower: regression; 25 vs 25: fine.
	fails, _ := compare(b, current, 0.2)
	if len(fails) != 1 || !strings.Contains(fails[0], "MulVec/sparse") {
		t.Errorf("latency regression not caught: %v", fails)
	}
}

// Bad metric or key columns surface as errors, not silent passes.
func TestMetricRowsErrors(t *testing.T) {
	tables := parsed(t)
	b := speedupBaseline(nil)
	b.Metric = "nope"
	if _, err := metricRows(b, tables["rightmul"]); err == nil {
		t.Error("unknown metric column should be an error")
	}
	b = speedupBaseline(nil)
	b.Keys = []string{"nope"}
	if _, err := metricRows(b, tables["rightmul"]); err == nil {
		t.Error("unknown key column should be an error")
	}
}

// A committed baseline whose regime left the registry is reported, and
// non-baseline files are ignored.
func TestStaleBaselines(t *testing.T) {
	known := map[string]bool{"kernelspeed": true, "rightmul": true}
	names := []string{
		"BENCH_kernelspeed.json", // known: fine
		"BENCH_decodecache.json",
		"BENCH_barrierscale.json",
		"README.md",        // not a baseline
		"BENCH_weird.yaml", // wrong extension
	}
	got := staleBaselines(names, known)
	want := []string{"barrierscale", "decodecache"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("staleBaselines = %v, want %v", got, want)
	}
}

// Every experiment benchdiff seeds a default spec for must exist in the
// registry — otherwise the spec itself is the stale name.
func TestDefaultSpecsMatchRegistry(t *testing.T) {
	known := map[string]bool{}
	for _, id := range bench.IDs() {
		known[id] = true
	}
	if len(known) == 0 {
		t.Fatal("internal/bench registers no experiments")
	}
	for id := range defaultSpecs {
		if !known[id] {
			t.Errorf("defaultSpecs names %q, which internal/bench does not register", id)
		}
	}
}
