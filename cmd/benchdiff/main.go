// Command benchdiff is the CI benchmark-regression gate: it compares the
// CSV table cmd/tocbench emits for the real-CPU kernelspeed regime against
// the committed BENCH_<experiment>.json baseline and fails when any row's
// metric regresses beyond the threshold.
//
// Usage:
//
//	benchdiff -baselines . kernelspeed.csv
//	benchdiff -baselines . -update kernelspeed.csv   # (re)write baselines
//
// Baselines pin a *relative* metric (vs_roofline), which transfers across
// runners far better than absolute milliseconds: a CSV row regresses when
// its metric rises more than threshold (default 20%) above the committed
// value (or falls below it, for higher-is-better metrics).
// Rows present in the baseline but missing from the CSVs fail the gate
// too — a silently dropped sweep point is a regression in coverage. New
// rows not yet in the baseline are reported but do not fail (as GitHub
// ::notice annotations when running in Actions); run -update to adopt
// them.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// baseline is one committed BENCH_<experiment>.json.
type baseline struct {
	Experiment string `json:"experiment"`
	// Metric is the CSV column compared against Rows.
	Metric string `json:"metric"`
	// Direction is "higher" (throughput-like: regression = falling below
	// baseline) or "lower" (latency-like: regression = rising above).
	Direction string `json:"direction"`
	// Keys are the CSV columns whose "/"-joined values identify a row.
	Keys []string `json:"keys"`
	// Threshold overrides the command-line threshold when > 0.
	Threshold float64 `json:"threshold,omitempty"`
	// Notes documents the baseline's provenance (which machine produced
	// it, which rows were deliberately left out); benchdiff ignores it.
	Notes string `json:"notes,omitempty"`
	// Rows maps each key to its committed metric value.
	Rows map[string]float64 `json:"rows"`
}

// defaultSpecs names the known regimes and seeds -update for those
// without a committed baseline yet. The gate is on a *relative* column —
// a ratio against an in-run reference — so it transfers across runner
// generations where absolute times do not. kernelspeed gates on
// vs_roofline: each decode kernel's single-core ns/nonzero as a multiple
// of the dense kernel's ns/element roofline, measured in the same
// process; lower is better, and a rise means the decode loops drifted
// away from hardware-limited.
var defaultSpecs = map[string]baseline{
	"kernelspeed": {Metric: "vs_roofline", Direction: "lower", Keys: []string{"kernel", "variant"}},
}

// table is one experiment's rows as parsed from a tocbench CSV.
type table struct {
	columns []string
	rows    [][]string
}

// parseCSV reads tocbench's concatenated-table CSV format: each table
// starts with a header record ("experiment", columns...) and its data
// records carry the experiment id in the first field.
func parseCSV(r io.Reader) (map[string]*table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	tables := map[string]*table{}
	var columns []string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return tables, nil
		}
		if err != nil {
			return nil, err
		}
		if len(rec) == 0 {
			continue
		}
		if rec[0] == "experiment" {
			columns = rec[1:]
			continue
		}
		if columns == nil {
			return nil, fmt.Errorf("data row before any header: %v", rec)
		}
		id := rec[0]
		t := tables[id]
		if t == nil {
			t = &table{columns: columns}
			tables[id] = t
		}
		t.rows = append(t.rows, rec[1:])
	}
}

// metricRows extracts the baseline's keyed metric values from a table.
func metricRows(b *baseline, t *table) (map[string]float64, error) {
	col := map[string]int{}
	for i, c := range t.columns {
		col[c] = i
	}
	mi, ok := col[b.Metric]
	if !ok {
		return nil, fmt.Errorf("metric column %q not in CSV columns %v", b.Metric, t.columns)
	}
	out := map[string]float64{}
	for _, row := range t.rows {
		parts := make([]string, len(b.Keys))
		for i, k := range b.Keys {
			ki, ok := col[k]
			if !ok {
				return nil, fmt.Errorf("key column %q not in CSV columns %v", k, t.columns)
			}
			parts[i] = row[ki]
		}
		key := strings.Join(parts, "/")
		v, err := strconv.ParseFloat(row[mi], 64)
		if err != nil {
			return nil, fmt.Errorf("row %q: bad %s value %q", key, b.Metric, row[mi])
		}
		out[key] = v
	}
	return out, nil
}

// compare reports the gate failures of current vs the baseline's metric,
// and separately the keys current has that the baseline does not.
func compare(b *baseline, current map[string]float64, threshold float64) (failures, newRows []string) {
	threshold = effectiveThreshold(b, threshold)
	keys := make([]string, 0, len(b.Rows))
	for k := range b.Rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		base := b.Rows[k]
		got, ok := current[k]
		if !ok {
			failures = append(failures,
				fmt.Sprintf("%s[%s]: baselined row missing from CSV", b.Experiment, k))
			continue
		}
		switch b.Direction {
		case "lower":
			if got > base*(1+threshold) {
				failures = append(failures,
					fmt.Sprintf("%s[%s]: %s %.3f regressed >%.0f%% above baseline %.3f",
						b.Experiment, k, b.Metric, got, threshold*100, base))
			}
		default: // "higher"
			if got < base*(1-threshold) {
				failures = append(failures,
					fmt.Sprintf("%s[%s]: %s %.3f regressed >%.0f%% below baseline %.3f",
						b.Experiment, k, b.Metric, got, threshold*100, base))
			}
		}
	}
	cur := make([]string, 0, len(current))
	for k := range current {
		cur = append(cur, k)
	}
	sort.Strings(cur)
	for _, k := range cur {
		if _, ok := b.Rows[k]; !ok {
			newRows = append(newRows, k)
		}
	}
	return failures, newRows
}

func baselinePath(dir, experiment string) string {
	return filepath.Join(dir, "BENCH_"+experiment+".json")
}

// staleBaselines returns the experiments among the baseline file names
// that are not known regimes — committed BENCH_*.json files whose regime
// was renamed or removed from cmd/tocbench. names are base names; known
// is the set of regimes benchdiff has a default spec for.
func staleBaselines(names []string, known map[string]bool) []string {
	var stale []string
	for _, name := range names {
		exp, ok := strings.CutPrefix(name, "BENCH_")
		if !ok {
			continue
		}
		exp, ok = strings.CutSuffix(exp, ".json")
		if !ok {
			continue
		}
		if !known[exp] {
			stale = append(stale, exp)
		}
	}
	sort.Strings(stale)
	return stale
}

// warnStaleBaselines is report-only: a stale baseline means the gate
// silently stopped covering a regime, which should be visible in CI logs
// without failing unrelated benchmark runs.
func warnStaleBaselines(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // the per-experiment load reports unreadable dirs
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	known := map[string]bool{}
	for id := range defaultSpecs {
		known[id] = true
	}
	for _, exp := range staleBaselines(names, known) {
		fmt.Printf("benchdiff: WARNING: %s names experiment %q, which is not a known regime; delete the baseline or restore the regime\n",
			baselinePath(dir, exp), exp)
	}
}

func loadBaseline(dir, experiment string) (*baseline, error) {
	data, err := os.ReadFile(baselinePath(dir, experiment))
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", baselinePath(dir, experiment), err)
	}
	if b.Experiment == "" {
		b.Experiment = experiment
	}
	return &b, nil
}

func writeBaseline(dir string, b *baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(baselinePath(dir, b.Experiment), append(data, '\n'), 0o644)
}

func main() {
	var (
		dir       = flag.String("baselines", ".", "directory holding BENCH_<experiment>.json files")
		threshold = flag.Float64("threshold", 0.2, "relative regression that fails the gate (0.2 = 20%)")
		update    = flag.Bool("update", false, "rewrite baselines from the CSVs instead of gating")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no CSV files given")
		os.Exit(2)
	}
	warnStaleBaselines(*dir)

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	tables := map[string]*table{}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		parsed, err := parseCSV(f)
		f.Close()
		if err != nil {
			fail(fmt.Errorf("%s: %v", path, err))
		}
		for id, t := range parsed {
			if _, dup := tables[id]; dup {
				fail(fmt.Errorf("experiment %q appears in more than one CSV", id))
			}
			tables[id] = t
		}
	}

	ids := make([]string, 0, len(tables))
	for id := range tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var failures []string
	for _, id := range ids {
		b, err := loadBaseline(*dir, id)
		if os.IsNotExist(err) {
			if spec, ok := defaultSpecs[id]; *update && ok {
				spec.Experiment = id
				b, err = &spec, nil
			} else {
				fmt.Printf("benchdiff: %s: no baseline %s, skipping\n", id, baselinePath(*dir, id))
				continue
			}
		}
		if err != nil {
			fail(err)
		}
		current, err := metricRows(b, tables[id])
		if err != nil {
			fail(fmt.Errorf("%s: %v", id, err))
		}
		if *update {
			b.Rows = current
			if err := writeBaseline(*dir, b); err != nil {
				fail(err)
			}
			fmt.Printf("benchdiff: wrote %s (%d rows)\n", baselinePath(*dir, id), len(current))
			continue
		}
		expFails, newRows := compare(b, current, *threshold)
		failures = append(failures, expFails...)
		for _, k := range newRows {
			notice(fmt.Sprintf("%s[%s]: not in baseline (run -update to adopt)", id, k))
		}
		if len(expFails) == 0 {
			fmt.Printf("benchdiff: %s: %d rows within %.0f%% of baseline (%s)\n",
				id, len(b.Rows), effectiveThreshold(b, *threshold)*100, b.Metric)
		}
	}
	if *update {
		return
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
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

func effectiveThreshold(b *baseline, flagThreshold float64) float64 {
	if b.Threshold > 0 {
		return b.Threshold
	}
	return flagThreshold
}
