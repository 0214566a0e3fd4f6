package main

import (
	"strings"
	"testing"
)

const sampleCSV = `experiment,kernel,variant,ns_per_nnz,vs_roofline
kernelspeed,MulVec,full,25,1.00
kernelspeed,MulVec,sparse,15,0.61
experiment,dataset,rows,TOC
fig5,census,250,9.81
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
	if got := tables["kernelspeed"]; len(got.rows) != 2 || got.columns[3] != "vs_roofline" {
		t.Errorf("kernelspeed table malformed: %+v", got)
	}
	if got := tables["fig5"]; len(got.rows) != 1 || got.columns[2] != "TOC" {
		t.Errorf("fig5 table malformed: %+v", got)
	}
	if _, err := parseCSV(strings.NewReader("kernelspeed,MulVec,full\n")); err == nil {
		t.Error("data row before any header should be an error")
	}
}

// vsRooflineBaseline is the committed kernelspeed spec over rows.
func vsRooflineBaseline(rows map[string]float64) *baseline {
	b := defaultSpecs["kernelspeed"]
	b.Experiment = "kernelspeed"
	b.Rows = rows
	return &b
}

// The gate trips on a >threshold move of the metric the wrong way, on a
// baselined row missing from the CSV — and on nothing else.
func TestCompareGate(t *testing.T) {
	tables := parsed(t)
	b := vsRooflineBaseline(map[string]float64{"MulVec/full": 1.0, "MulVec/sparse": 0.6})
	current, err := metricRows(b, tables["kernelspeed"])
	if err != nil {
		t.Fatal(err)
	}
	if fails, _ := compare(b, current, 0.2); len(fails) != 0 {
		t.Errorf("within-threshold run failed the gate: %v", fails)
	}

	// 0.61 measured vs 0.5 committed is a 22% rise: regression.
	b.Rows["MulVec/sparse"] = 0.5
	fails, _ := compare(b, current, 0.2)
	if len(fails) != 1 || !strings.Contains(fails[0], "MulVec/sparse") {
		t.Errorf("22%% rise not caught: %v", fails)
	}
	// A per-baseline threshold override loosens the same comparison.
	b.Threshold = 0.5
	if fails, _ := compare(b, current, 0.2); len(fails) != 0 {
		t.Errorf("50%% baseline threshold still failed: %v", fails)
	}
	b.Threshold = 0

	// A higher-is-better metric regresses downward: 1.00 vs 1.3 is a 23%
	// drop.
	b.Direction = "higher"
	b.Rows = map[string]float64{"MulVec/full": 1.3, "MulVec/sparse": 0.61}
	fails, _ = compare(b, current, 0.2)
	if len(fails) != 1 || !strings.Contains(fails[0], "MulVec/full") {
		t.Errorf("23%% drop not caught: %v", fails)
	}
	b.Direction = "lower"

	// A dropped sweep point is a coverage regression.
	b.Rows = map[string]float64{"MulVec/full": 1.0, "MulVec/sparse": 0.6, "MatMul/full": 0.9}
	fails, _ = compare(b, current, 0.2)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Errorf("missing row not caught: %v", fails)
	}

	// Rows the baseline has not adopted yet are reported, never failed.
	b.Rows = map[string]float64{"MulVec/full": 1.0}
	fails, newRows := compare(b, current, 0.2)
	if len(fails) != 0 {
		t.Errorf("new row failed the gate: %v", fails)
	}
	if len(newRows) != 1 || newRows[0] != "MulVec/sparse" {
		t.Errorf("new rows = %v, want [MulVec/sparse]", newRows)
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
	b := vsRooflineBaseline(nil)
	b.Metric = "nope"
	if _, err := metricRows(b, tables["kernelspeed"]); err == nil {
		t.Error("unknown metric column should be an error")
	}
	b = vsRooflineBaseline(nil)
	b.Keys = []string{"nope"}
	if _, err := metricRows(b, tables["kernelspeed"]); err == nil {
		t.Error("unknown key column should be an error")
	}
}

// A committed baseline whose regime is no longer known is reported, and
// non-baseline files are ignored.
func TestStaleBaselines(t *testing.T) {
	known := map[string]bool{"kernelspeed": true}
	names := []string{
		"BENCH_kernelspeed.json", // known: fine
		"BENCH_decodecache.json",
		"BENCH_rightmul.json",
		"BENCH_barrierscale.json",
		"README.md",        // not a baseline
		"BENCH_weird.yaml", // wrong extension
	}
	got := staleBaselines(names, known)
	want := []string{"barrierscale", "decodecache", "rightmul"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("staleBaselines = %v, want %v", got, want)
	}
}
