package storage

import (
	"testing"

	"toc/internal/data"
)

// The paper's out-of-core argument (§6, Tables 6/7) in counts, with no
// clock: under one budget, the smaller a scheme's batches the more of
// them stay resident, and the fewer an epoch reads back from disk. One
// dataset — 40 imagenet batches of 250 rows — is stored under a ladder of
// budgets by DEN, CSR and TOC, and an epoch visits every batch once in
// ingest order. Each rung pins, per scheme, the batches resident, the
// batches re-read in the epoch and the bytes those reads cost.

// crossoverCounts is one scheme's layout and epoch IO under one budget.
type crossoverCounts struct {
	resident, reread int
	bytesRead        int64
}

func TestOutOfCoreCrossoverCounts(t *testing.T) {
	const rows, batches = 250, 40
	d, err := data.Generate("imagenet", rows*batches, 1)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []string{"DEN", "CSR", "TOC"}
	// Budgets in MiB; want[rung] is DEN, CSR, TOC. A DEN batch is 360016
	// bytes, a CSR one ≈ 167 KB and a TOC one ≈ 32 KB.
	budgets := []int64{0, 1, 2, 4, 8, 16}
	want := [][3]crossoverCounts{
		{{0, 40, 14400640}, {0, 40, 6676296}, {0, 40, 1281277}},
		{{2, 38, 13680608}, {6, 34, 5677140}, {32, 8, 255733}},
		{{5, 35, 12600560}, {12, 28, 4672284}, {40, 0, 0}},
		{{11, 29, 10440464}, {25, 15, 2500584}, {40, 0, 0}},
		{{23, 17, 6120272}, {40, 0, 0}, {40, 0, 0}},
		{{40, 0, 0}, {40, 0, 0}, {40, 0, 0}},
	}
	got := make([][3]crossoverCounts, len(budgets))
	for r, mib := range budgets {
		for k, method := range schemes {
			st, err := NewStore(t.TempDir(), method, mib<<20)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < batches; i++ {
				x, y := d.Batch(i, rows)
				if err := st.Add(x, y); err != nil {
					t.Fatal(err)
				}
			}
			before := st.Stats()
			for i := 0; i < batches; i++ {
				if _, _, err := st.TryBatch(i); err != nil {
					t.Fatal(err)
				}
			}
			after := st.Stats()
			got[r][k] = crossoverCounts{
				resident:  after.ResidentBatches,
				reread:    int(after.Reads - before.Reads),
				bytesRead: after.BytesRead - before.BytesRead,
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r, mib := range budgets {
		den, csr, toc := got[r][0], got[r][1], got[r][2]
		if r >= len(want) || got[r] != want[r] {
			t.Errorf("%d MiB: DEN %+v, CSR %+v, TOC %+v", mib, den, csr, toc)
		}
		for _, c := range got[r] {
			if c.resident+c.reread != batches {
				t.Errorf("%d MiB: %d resident and %d re-read of %d batches", mib, c.resident, c.reread, batches)
			}
		}
		if !(toc.reread <= csr.reread && csr.reread <= den.reread && toc.bytesRead <= csr.bytesRead && csr.bytesRead <= den.bytesRead) {
			t.Errorf("%d MiB: re-reads (bytes) TOC %d (%d), CSR %d (%d), DEN %d (%d): want TOC <= CSR <= DEN",
				mib, toc.reread, toc.bytesRead, csr.reread, csr.bytesRead, den.reread, den.bytesRead)
		}
	}
	crossover := false
	for r := range budgets {
		if den, toc := got[r][0], got[r][2]; toc.reread == 0 && 2*den.reread >= batches {
			crossover = true
		}
	}
	if !crossover {
		t.Error("no budget keeps every TOC batch resident while DEN re-reads at least half of its batches")
	}
}
