package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryHasEveryPaperArtifact(t *testing.T) {
	want := []string{"fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "kernelspeed", "table6", "table7"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("IDs() = %v, want %d experiments", IDs(), len(want))
	}
	if _, ok := Get("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a    bb", "333  4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// Fast experiments run end-to-end at tiny scale and emit well-formed
// tables (the training-heavy ones are exercised by bench_test.go at the
// repo root).
func TestFastExperimentsRun(t *testing.T) {
	cfg := Config{Scale: 0.2, Seed: 1, Dir: t.TempDir()}
	for _, id := range []string{"fig5", "fig6", "fig7", "fig12"} {
		e, _ := Get(id)
		table, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
		for _, row := range table.Rows {
			if len(row) != len(table.Columns) {
				t.Fatalf("%s: row width %d != %d columns", id, len(row), len(table.Columns))
			}
		}
	}
}

// The fig5 shape assertions the reproduction stands on: at 250 rows TOC
// must beat CSR/CVI/DVI/CLA on the moderate-sparsity datasets, track CSR
// on rcv1, and nothing should compress deep1b.
func TestFig5Shapes(t *testing.T) {
	e, _ := Get("fig5")
	table, err := e.Run(Config{Scale: 1, Seed: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// columns: dataset rows CSR CVI DVI Snappy Gzip TOC CLA
	col := map[string]int{}
	for i, c := range table.Columns {
		col[c] = i
	}
	ratios := map[string]map[string]float64{}
	for _, row := range table.Rows {
		if row[1] != "250" {
			continue
		}
		m := map[string]float64{}
		for _, name := range []string{"CSR", "CVI", "DVI", "Snappy", "Gzip", "TOC", "CLA"} {
			v, err := strconv.ParseFloat(row[col[name]], 64)
			if err != nil {
				t.Fatalf("bad cell %q", row[col[name]])
			}
			m[name] = v
		}
		ratios[row[0]] = m
	}
	for _, ds := range []string{"census", "imagenet", "kdd99"} {
		r := ratios[ds]
		for _, other := range []string{"CSR", "CVI", "DVI", "CLA", "Snappy"} {
			if r["TOC"] <= r[other] {
				t.Errorf("%s: TOC %.2f should beat %s %.2f", ds, r["TOC"], other, r[other])
			}
		}
		if r["TOC"] < r["Gzip"]*0.95 {
			t.Errorf("%s: TOC %.2f should be at least ~Gzip %.2f", ds, r["TOC"], r["Gzip"])
		}
	}
	if m := ratios["mnist"]; m["Gzip"] <= m["TOC"] {
		t.Errorf("mnist: Gzip %.2f should beat TOC %.2f (paper)", m["Gzip"], m["TOC"])
	}
	if r := ratios["rcv1"]; r["TOC"] < r["CSR"]*0.8 || r["TOC"] > r["CSR"]*1.5 {
		t.Errorf("rcv1: TOC %.2f should track CSR %.2f", r["TOC"], r["CSR"])
	}
	for name, v := range ratios["deep1b"] {
		if v > 1.2 {
			t.Errorf("deep1b: %s ratio %.2f should be ~1", name, v)
		}
	}
}
