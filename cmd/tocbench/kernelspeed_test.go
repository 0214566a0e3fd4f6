package main

import (
	"bytes"
	"strings"
	"testing"
)

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

// The regime CI gates runs end to end on one batch: four kernels times
// two variants, every row full width. No error means every compressed
// checksum agreed with the dense kernel's.
func TestKernelSpeedRuns(t *testing.T) {
	table, err := runKernelSpeed(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Columns) != 8 || len(table.Rows) != 8 {
		t.Fatalf("table is %d rows x %d columns, want 8 x 8", len(table.Rows), len(table.Columns))
	}
	for _, row := range table.Rows {
		if len(row) != len(table.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(table.Columns))
		}
	}
}
