package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{3, 50}, {19, 50}, {39, 50}, // p75 of 39 leaves 9 beyond
		{40, 75}, {99, 75}, // p90 of 99 leaves 9 beyond
		{100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The percentile it names really has ten samples beyond it.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := percentile(vals, tailPercentile(len(vals))); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
	if got := percentile(vals, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noParent, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},          // child
		{ID: 2, Parent: 1, Start: 15, End: 20},          // grandchild: only the child loses it
		{ID: 3, Parent: 0, Start: 40, End: 60},          // sibling
		{ID: 4, Parent: 0, Start: 50, End: 70},          // overlaps its sibling: counted once
		{ID: 5, Parent: 0, Start: 90, End: 120},         // runs past the parent: clipped
		{ID: 6, Parent: noParent, Start: 200, End: 230}, // childless
		{ID: 7, Parent: 99, Start: 300, End: 310},       // parent not in the window
	}
	want := []int64{100 - 20 - 30 - 10, 20 - 5, 5, 20, 20, 30, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// small shrinks a workload to 2000 rows; the distributed loop also drops
// to one trainer at staleness 0, the one setting in which it is
// deterministic, and is not held to the dense loss: two dozen steps are
// too few for top-k's error feedback to drain.
func small(w *workload) *workload {
	s := *w
	s.rows = 2000
	s.epochs = 2
	if s.trainers > 0 {
		s.trainers, s.staleness, s.refTol = 1, 0, math.Inf(1)
	}
	return &s
}

// TestDecoratorTransparency: a decorated and an undecorated run of each
// training loop end on bit-identical parameters and build the same number
// of decode trees.
func TestDecoratorTransparency(t *testing.T) {
	for _, w := range workloads {
		if w.model == "" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			w := small(w)
			e := &env{seed: 7, dir: t.TempDir()}
			d, err := w.generate(e.seed)
			if err != nil {
				t.Fatal(err)
			}
			lp, err := w.open(w, e, d, w.base)
			if err != nil {
				t.Fatal(err)
			}
			defer lp.close()
			src, err := lp.source()
			if err != nil {
				t.Fatal(err)
			}
			nnz, _ := scan(src)
			plain, err := lp.run(2, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := plain.release(); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := lp.run(2, tr, nnz)
			if err != nil {
				t.Fatal(err)
			}
			if err := traced.release(); err != nil {
				t.Fatal(err)
			}
			if len(tr.done()) == 0 {
				t.Fatal("the decorated run recorded no spans")
			}
			for i := range plain.params {
				if math.Float64bits(plain.params[i]) != math.Float64bits(traced.params[i]) {
					t.Fatalf("param %d: undecorated %v, decorated %v", i, plain.params[i], traced.params[i])
				}
			}
			if plain.treeBuilds != traced.treeBuilds || plain.treeBuilds == 0 {
				t.Errorf("tree builds: undecorated %d, decorated %d", plain.treeBuilds, traced.treeBuilds)
			}
			if plain.ops != traced.ops {
				t.Errorf("ops: undecorated %d, decorated %d", plain.ops, traced.ops)
			}
		})
	}
}

// TestEveryWorkloadReportsEveryMetric runs the whole per-workload path —
// set-up, repeats, output checks, reference, probes and traced run — on
// tiny inputs, and checks the result carries the full catalog.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(small(w), options{seed: 3, seconds: 1, trace: true, tmpDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			for _, def := range endToEnd {
				if v, ok := r.e2e[def.name]; !ok || !(v.Value > 0) || v.Unit != def.unit {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", def.name, v, def.unit)
				}
			}
			if len(r.e2e) != len(endToEnd) || len(r.layer) != len(perLayer) {
				t.Errorf("reported %d end-to-end and %d per-layer metrics, catalog has %d and %d",
					len(r.e2e), len(r.layer), len(endToEnd), len(perLayer))
			}
			if r.ops < 1 || r.failed != 0 || len(r.problems) != 0 {
				t.Errorf("ops %d, failed %d, problems %v", r.ops, r.failed, r.problems)
			}
		})
	}
}

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesProgram: every workload and metric named in
// BENCHMARK.json is one the program reports, and the other way round.
// (metricSet makes the catalog and the output the same set.)
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) || b.RunSeconds != sizedSeconds {
		t.Errorf("paths %v, run_seconds %v; want [benchmark], %d", b.Paths, b.RunSeconds, sizedSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, program has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, listed []jsonMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, program has %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			got := listed[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s %d is %+v, program has %+v", kind, i, got, d)
			}
			if bounded != (got.Bound != nil) || (bounded && *got.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, program has %v", kind, d.name, got.Bound, d.bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}
