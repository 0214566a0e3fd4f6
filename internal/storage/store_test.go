package storage

import (
	"math/rand"
	"os"
	"sync"
	"testing"

	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/matrix"
	"toc/internal/ml"
)

// The store must satisfy the MGD driver's contract.
var _ ml.BatchSource = (*Store)(nil)

func testBatches(t *testing.T, n, rows, cols int) ([]*matrix.Dense, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var xs []*matrix.Dense
	var ys [][]float64
	for b := 0; b < n; b++ {
		x := matrix.NewDense(rows, cols)
		y := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.5 {
					x.Set(i, j, float64(rng.Intn(4)+1)/4)
				}
			}
			y[i] = float64(rng.Intn(2))
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

func TestAllResidentUnderLargeBudget(t *testing.T) {
	xs, ys := testBatches(t, 5, 20, 10)
	s, err := NewStore(t.TempDir(), "TOC", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SpilledBatches != 0 || st.ResidentBatches != 5 {
		t.Fatalf("layout: %+v", st)
	}
	if s.Spilled() {
		t.Fatal("Spilled() should be false")
	}
	for i := range xs {
		c, y := s.Batch(i)
		if !c.Decode().Equal(xs[i]) {
			t.Fatalf("batch %d content mismatch", i)
		}
		for k := range y {
			if y[k] != ys[i][k] {
				t.Fatalf("batch %d labels mismatch", i)
			}
		}
	}
	if s.Stats().Reads != 0 {
		t.Fatal("resident reads should not count as IO")
	}
}

func TestSpillAndReadBack(t *testing.T) {
	xs, ys := testBatches(t, 6, 30, 12)
	// Budget fits roughly two TOC batches.
	probe := formats.MustGet("TOC")(xs[0]).CompressedSize()
	s, err := NewStore(t.TempDir(), "TOC", int64(probe*2+probe/2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.ResidentBatches < 1 || st.SpilledBatches < 3 {
		t.Fatalf("expected a mixed layout, got %+v", st)
	}
	// Every batch — resident or spilled — must round trip exactly.
	for i := range xs {
		c, _ := s.Batch(i)
		if !c.Decode().Equal(xs[i]) {
			t.Fatalf("batch %d content mismatch after spill", i)
		}
	}
	st = s.Stats()
	if st.Reads != int64(st.SpilledBatches) {
		t.Fatalf("reads %d != spilled %d", st.Reads, st.SpilledBatches)
	}
	if st.BytesRead != st.SpilledBytes {
		t.Fatalf("bytes read %d != spilled bytes %d", st.BytesRead, st.SpilledBytes)
	}
	if st.ReadTime <= 0 {
		t.Fatal("read time not accounted")
	}
	// Second epoch reads again.
	for i := range xs {
		s.Batch(i)
	}
	if got := s.Stats().Reads; got != 2*int64(st.SpilledBatches) {
		t.Fatalf("second epoch reads = %d", got)
	}
}

func TestZeroBudgetSpillsEverything(t *testing.T) {
	xs, ys := testBatches(t, 3, 10, 8)
	for _, method := range []string{"DEN", "CSR", "CVI", "DVI", "CLA", "TOC", "Gzip", "Snappy"} {
		s, err := NewStore(t.TempDir(), method, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if err := s.Add(xs[i], ys[i]); err != nil {
				t.Fatalf("%s: %v", method, err)
			}
		}
		if s.Stats().ResidentBatches != 0 {
			t.Fatalf("%s: nothing should be resident", method)
		}
		for i := range xs {
			c, _ := s.Batch(i)
			if !c.Decode().Equal(xs[i]) {
				t.Fatalf("%s: batch %d mismatch", method, i)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", method, err)
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := NewStore(t.TempDir(), "NOPE", 0); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestLabelMismatch(t *testing.T) {
	s, _ := NewStore(t.TempDir(), "DEN", 0)
	defer s.Close()
	if err := s.Add(matrix.NewDense(3, 2), []float64{1}); err == nil {
		t.Fatal("label length mismatch should error")
	}
}

// A store whose batches all fit the budget must never create a spill
// file: nothing to leak when Close is skipped, nothing left behind in dir.
func TestFullyResidentStoreCreatesNoSpillFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, "TOC", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := testBatches(t, 4, 10, 8)
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("fully-resident store created %d files in dir", len(entries))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close without spill file: %v", err)
	}
}

// The spill file appears exactly when the budget first overflows.
func TestSpillFileCreatedLazilyOnFirstSpill(t *testing.T) {
	dir := t.TempDir()
	xs, ys := testBatches(t, 3, 20, 10)
	probe := formats.MustGet("TOC")(xs[0]).CompressedSize()
	s, err := NewStore(dir, "TOC", int64(probe)+1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Add(xs[0], ys[0]); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatal("spill file created before any batch spilled")
	}
	for i := 1; i < 3; i++ {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Spilled() {
		t.Fatal("expected later batches to spill")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatal("expected exactly one spill file after spilling")
	}
	for i := range xs {
		c, _ := s.Batch(i)
		if !c.Decode().Equal(xs[i]) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
}

// Spilled and Stats promise the Stats mutex contract; exercised under
// -race against concurrent spilled reads.
func TestStatsAccessorsConcurrentWithBatch(t *testing.T) {
	xs, ys := testBatches(t, 6, 10, 8)
	s, err := NewStore(t.TempDir(), "TOC", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range xs {
				s.Batch(i)
				if !s.Spilled() {
					t.Error("Spilled() = false on an all-spilled store")
				}
				if st := s.Stats(); st.ResidentBytes+st.SpilledBytes <= 0 {
					t.Errorf("Stats() = %+v: no compressed bytes", st)
				}
			}
		}()
	}
	wg.Wait()
}

func TestCloseRemovesSpillFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStore(dir, "TOC", 0)
	xs, ys := testBatches(t, 2, 5, 4)
	for i := range xs {
		s.Add(xs[i], ys[i])
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("expected one spill file, found %d", len(entries))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatal("spill file not removed")
	}
}

// Training through a spilled store must produce the same model as
// training fully in memory.
func TestTrainingThroughSpillMatchesMemory(t *testing.T) {
	d, err := data.Generate("census", 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(10)

	ref, _ := ml.NewModel("lr", d.X.Cols(), d.Classes, 1, 1)
	memSrc := ml.NewMemorySource(d, 50, formats.MustGet("TOC"))
	ml.Train(ref, memSrc, 3, 0.2, nil)

	s, _ := NewStore(t.TempDir(), "TOC", 0) // everything on disk
	defer s.Close()
	for i := 0; i < d.NumBatches(50); i++ {
		x, y := d.Batch(i, 50)
		if err := s.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	m2, _ := ml.NewModel("lr", d.X.Cols(), d.Classes, 1, 1)
	ml.Train(m2, s, 3, 0.2, nil)

	w1 := ref.(*ml.Linear).P
	w2 := m2.(*ml.Linear).P
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weights diverge at %d: %v vs %v", i, w1[i], w2[i])
		}
	}
	if s.Stats().Reads == 0 {
		t.Fatal("spilled training should have counted reads")
	}
}

// denBatch builds a rows×4 dense batch; with the DEN codec its compressed
// size is a deterministic function of the shape alone, which makes
// residency traces exact.
func denBatch(rows int) (*matrix.Dense, []float64) {
	x := matrix.NewDense(rows, 4)
	for i := 0; i < rows; i++ {
		x.Set(i, i%4, float64(i+1))
	}
	return x, make([]float64, rows)
}

// residency reports which batches are resident, as a bitmap string.
func residency(s *Store) string {
	out := make([]byte, s.NumBatches())
	for i := range out {
		if s.Resident(i) {
			out[i] = 'R'
		} else {
			out[i] = 'S'
		}
	}
	return string(out)
}

// A batch is resident iff it fits the budget left when it arrives, and a
// resident batch is never displaced: the big first arrival keeps its
// slot, and the smalls after it spill although two of them would fit
// where it sits.
func TestEvictionFirstFitTrace(t *testing.T) {
	x, _ := denBatch(20)
	big := int64(formats.MustGet("DEN")(x).CompressedSize())
	s, err := NewStore(t.TempDir(), "DEN", big+1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, rows := range []int{20, 6, 6} {
		x, y := denBatch(rows)
		if err := s.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	if got := residency(s); got != "RSS" {
		t.Fatalf("residency = %s, want RSS", got)
	}
	if st := s.Stats(); st.ResidentBytes != big || st.SpilledBatches != 2 {
		t.Fatalf("layout: %+v", st)
	}
}

// AddCompressed's residency is a prefix rule: a batch stays resident iff
// it fits beside the resident batches before it, and a spilled one frees
// no budget for those after it. With a 500-byte budget, DEN batches of 6,
// 20, 6, 2 and 20 rows (208, 656, 208, 80 and 656 bytes) land RSRRS, and
// after every add the resident bytes are the rule's sum so far.
func TestAddCompressedPrefixRule(t *testing.T) {
	s, err := NewStore(t.TempDir(), "DEN", 500)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var used int64
	for i, r := range []int{6, 20, 6, 2, 20} {
		x, y := denBatch(r)
		c := s.Encode(x)
		size := int64(c.CompressedSize())
		fits := used+size <= 500
		if fits {
			used += size
		}
		if err := s.AddCompressed(c, y); err != nil {
			t.Fatal(err)
		}
		if s.Resident(i) != fits || s.Stats().ResidentBytes != used {
			t.Fatalf("batch %d (%d bytes): resident %v with %d resident bytes, want %v with %d",
				i, size, s.Resident(i), s.Stats().ResidentBytes, fits, used)
		}
	}
	if got := residency(s); got != "RSRRS" {
		t.Fatalf("residency = %s, want RSRRS", got)
	}
}
