package engine

import (
	"bytes"
	"math"
	"testing"
	"time"

	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/ml"
	"toc/internal/storage"
	"toc/internal/testutil"
)

func testSource(t testing.TB, name string, rows int) (*data.Dataset, *ml.MemorySource) {
	t.Helper()
	d, err := data.Generate(name, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(2)
	return d, ml.NewMemorySource(d, 50, formats.MustGet("TOC"))
}

func newModel(t testing.TB, name string, d *data.Dataset, seed int64) ml.Model {
	t.Helper()
	m, err := ml.NewModel(name, d.X.Cols(), d.Classes, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// flatParams snapshots a model's parameters by unpacking each concrete
// model type's weight fields.
func flatParams(t testing.TB, m ml.Model) []float64 {
	t.Helper()
	switch v := m.(type) {
	case *ml.Linear:
		return append(append([]float64(nil), v.W...), v.B)
	case *ml.OneVsRest:
		var out []float64
		for _, sub := range v.Models {
			out = append(out, flatParams(t, sub)...)
		}
		return out
	case *ml.NN:
		var out []float64
		for l := range v.W {
			out = append(out, v.W[l].Data()...)
			out = append(out, v.B[l]...)
		}
		return out
	default:
		t.Fatalf("flatParams: unsupported model %T", m)
		return nil
	}
}

func maxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// GroupSize 1 makes the engine a serial MGD driver; its trajectory must
// match ml.Train exactly for every model family.
func TestEngineGroupOneMatchesSerialTrain(t *testing.T) {
	for _, name := range []string{"linreg", "lr", "svm", "nn"} {
		d, src := testSource(t, "census", 400)
		serial := newModel(t, name, d, 7)
		resS := ml.Train(serial, src, 3, 0.2, nil)

		eng := New(Config{Workers: 4, GroupSize: 1})
		parallel := newModel(t, name, d, 7)
		resP := eng.Train(parallel, src, 3, 0.2, nil)

		if diff := maxAbsDiff(flatParams(t, serial), flatParams(t, parallel)); diff > 1e-12 {
			t.Errorf("%s: weights diverge from serial ml.Train by %g", name, diff)
		}
		for e := range resS.EpochLoss {
			if math.Abs(resS.EpochLoss[e]-resP.EpochLoss[e]) > 1e-12 {
				t.Errorf("%s: epoch %d loss %g != serial %g", name, e, resP.EpochLoss[e], resS.EpochLoss[e])
			}
		}
	}
}

// The acceptance determinism property: for a fixed group size,
// workers=1 and workers=8 converge to the same weights.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, name := range []string{"lr", "nn"} {
		d, src := testSource(t, "mnist", 600)

		m1 := newModel(t, name, d, 11)
		res1 := New(Config{Workers: 1, GroupSize: 8, Seed: 5}).Train(m1, src, 3, 0.2, nil)

		m8 := newModel(t, name, d, 11)
		res8 := New(Config{Workers: 8, GroupSize: 8, Seed: 5}).Train(m8, src, 3, 0.2, nil)

		if diff := maxAbsDiff(flatParams(t, m1), flatParams(t, m8)); diff > 1e-12 {
			t.Errorf("%s: workers=1 vs workers=8 final weights differ by %g", name, diff)
		}
		for e := range res1.EpochLoss {
			if math.Abs(res1.EpochLoss[e]-res8.EpochLoss[e]) > 1e-12 {
				t.Errorf("%s: epoch %d loss curve differs: %g vs %g", name, e,
					res1.EpochLoss[e], res8.EpochLoss[e])
			}
		}
	}
}

// Exercised under -race in CI: eight workers training over a spilled store
// behind the async prefetcher.
func TestEngineConcurrentOverPrefetchedStore(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	d, err := data.Generate("census", 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(4)
	st, err := storage.NewStore(t.TempDir(), "TOC", 1) // 1-byte budget: all spilled
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := New(Config{Workers: 8, GroupSize: 8, Seed: 9})
	if err := eng.FillStore(st, d, 50); err != nil {
		t.Fatal(err)
	}
	if !st.Spilled() {
		t.Fatal("expected every batch to spill")
	}
	pf := storage.NewPrefetcher(st, 6, 3)
	defer pf.Close()

	m := newModel(t, "lr", d, 13)
	res := eng.Train(m, pf, 3, 0.3, nil)
	if len(res.EpochLoss) != 3 {
		t.Fatalf("epochs = %d", len(res.EpochLoss))
	}
	if res.EpochLoss[2] >= res.EpochLoss[0] {
		t.Errorf("loss did not decrease: %v", res.EpochLoss)
	}
	if ps := pf.Stats(); ps.Hits == 0 {
		t.Errorf("prefetcher never hit: %+v", ps)
	}
}

// The headline win: workers=8 plus the async prefetcher beats the serial
// training loop on an out-of-core store, by the two overlaps a real
// device allows. The store's IO cost is a deterministic per-read seek
// that serializes within a shard: the serial loop pays every seek in
// line with its compute, while the prefetcher's readers keep all four
// shards seeking at once, ahead of the loop. (Bandwidth would not do:
// it is an aggregate cap that more readers share, not multiply.) This is
// the one wall-clock engine-vs-serial comparison in the suite.
func TestEngineBeatsSerialOnSpilledStore(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison")
	}
	const batchSize, epochs, shards, seek = 100, 2, 4, 5 * time.Millisecond
	d, err := data.Generate("mnist", 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(4)
	newStore := func() *storage.Store {
		st, err := storage.NewStore(t.TempDir(), "TOC", 1,
			storage.WithShards(shards), storage.WithAccessLatency(seek))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	serialStore := newStore()
	for i := 0; i < d.NumBatches(batchSize); i++ {
		x, y := d.Batch(i, batchSize)
		if err := serialStore.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	serialRes := ml.Train(newModel(t, "lr", d, 17), serialStore, epochs, 0.2, nil)

	engineStore := newStore()
	eng := New(Config{Workers: 8, GroupSize: 8})
	if err := eng.FillStore(engineStore, d, batchSize); err != nil {
		t.Fatal(err)
	}
	pf := storage.NewPrefetcher(engineStore, 12, 8)
	defer pf.Close()
	engineRes := eng.Train(newModel(t, "lr", d, 17), pf, epochs, 0.2, nil)

	if engineRes.Total >= serialRes.Total*9/10 {
		t.Errorf("engine (workers=8, prefetch) took %v, serial %v — expected a clear win",
			engineRes.Total, serialRes.Total)
	}
}

// GroupSize 1 with a large pool routes all workers into the kernels
// inside each gradient (the parallel left/right multiplications). Those
// kernels are bitwise identical to the sequential ones, so the engine
// must still walk exactly the serial ml.Train trajectory.
func TestEngineKernelParallelMatchesSerialTrain(t *testing.T) {
	for _, name := range []string{"lr", "svm", "nn"} {
		d, src := testSource(t, "imagenet", 400)
		serial := newModel(t, name, d, 21)
		ml.Train(serial, src, 2, 0.2, nil)

		eng := New(Config{Workers: 16, GroupSize: 1})
		parallel := newModel(t, name, d, 21)
		eng.Train(parallel, src, 2, 0.2, nil)

		if diff := maxAbsDiff(flatParams(t, serial), flatParams(t, parallel)); diff != 0 {
			t.Errorf("%s: kernel-parallel weights diverge from serial by %g (want bitwise identity)", name, diff)
		}
	}
}

// The pool split of the package doc: the gradients a step (or a staleness
// window) keeps in flight claim workers first, and each gradient's matrix
// kernels get what is left over.
func TestKernelWorkersSplitThePool(t *testing.T) {
	engine := func(group, n int) int { return New(Config{Workers: 8, GroupSize: group}).KernelWorkers(n) }
	async := func(staleness int) int {
		return NewAsync(AsyncConfig{Workers: 8, Staleness: staleness}).KernelWorkers()
	}
	for _, row := range []struct {
		name      string
		got, want int
	}{
		{"engine group 1", engine(1, 40), 8},
		{"engine group 8", engine(8, 40), 1},
		{"engine group 8 over 2 batches", engine(8, 2), 4},
		{"async staleness 0", async(0), 8},
		{"async staleness 3", async(3), 2},
		{"async staleness 8", async(8), 1},
		{"async unbounded", async(StalenessUnbounded), 1},
	} {
		if row.got != row.want {
			t.Errorf("%s with 8 workers: %d kernel workers, want %d", row.name, row.got, row.want)
		}
	}
}

// Engine-built prefetchers cover every spill shard and honor the byte
// budget; training through one over a 4-shard store must walk the same
// trajectory as the single-file layout.
func TestEngineNewPrefetcherOverShardedStore(t *testing.T) {
	d, err := data.Generate("census", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(8)
	eng := New(Config{Workers: 4, GroupSize: 4, Seed: 3})

	train := func(st *storage.Store) []float64 {
		t.Helper()
		if err := eng.FillStore(st, d, 25); err != nil {
			t.Fatal(err)
		}
		avgSpan := st.Stats().SpilledBytes / int64(st.NumBatches())
		pf := eng.NewPrefetcher(st, 0, 4*avgSpan) // ~4 average batches in flight
		defer pf.Close()
		m := newModel(t, "lr", d, 29)
		res := eng.Train(m, pf, 3, 0.2, nil)
		if ps := pf.Stats(); ps.Hits == 0 {
			t.Errorf("engine prefetcher never hit: %+v", ps)
		}
		return res.EpochLoss
	}

	one, err := storage.NewStore(t.TempDir(), "TOC", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	four, err := storage.NewStore(t.TempDir(), "TOC", 1, storage.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()
	lossOne, lossFour := train(one), train(four)
	for e := range lossOne {
		if lossOne[e] != lossFour[e] {
			t.Errorf("epoch %d: 4-shard loss %g != 1-shard %g", e, lossFour[e], lossOne[e])
		}
	}
}

// FillStore must produce the same layout and contents as serial Add.
func TestFillStoreMatchesSerialAdd(t *testing.T) {
	d, err := data.Generate("census", 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := storage.NewStore(t.TempDir(), "TOC", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	for i := 0; i < d.NumBatches(50); i++ {
		x, y := d.Batch(i, 50)
		if err := serial.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	parallel, err := storage.NewStore(t.TempDir(), "TOC", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.Close()
	if err := New(Config{Workers: 8}).FillStore(parallel, d, 50); err != nil {
		t.Fatal(err)
	}
	ss, ps := serial.Stats(), parallel.Stats()
	if ss.ResidentBatches != ps.ResidentBatches || ss.SpilledBatches != ps.SpilledBatches ||
		ss.ResidentBytes != ps.ResidentBytes || ss.SpilledBytes != ps.SpilledBytes {
		t.Fatalf("layout differs: serial %+v parallel %+v", ss, ps)
	}
	if ss.SpilledBatches == 0 || ss.ResidentBatches == 0 {
		t.Fatalf("want both resident and spilled batches, got %+v", ss)
	}
	for i := 0; i < serial.NumBatches(); i++ {
		a, ya := serial.Batch(i)
		b, yb := parallel.Batch(i)
		if serial.Resident(i) != parallel.Resident(i) {
			t.Fatalf("batch %d: resident %v serially, %v in parallel", i, serial.Resident(i), parallel.Resident(i))
		}
		if !a.Decode().Equal(b.Decode()) || !bytes.Equal(a.Serialize(), b.Serialize()) {
			t.Fatalf("batch %d contents differ", i)
		}
		for k := range ya {
			if ya[k] != yb[k] {
				t.Fatalf("batch %d labels differ", i)
			}
		}
	}
}

// Parallel right-mul kernels + per-Grad plan reuse must leave the
// trajectory untouched: Workers=8/GroupSize=1 routes all eight goroutines
// into each gradient's kernels (the A·v/A·M forward now sharded, the
// decode tree built once per Grad through the shared plan), and the loss
// sequence must still equal serial ml.Train bit for bit.
func TestEngineRightMulPlanTrajectoryIdentity(t *testing.T) {
	for _, name := range []string{"lr", "nn"} {
		d, src := testSource(t, "mnist", 500)
		serial := newModel(t, name, d, 13)
		resS := ml.Train(serial, src, 3, 0.2, nil)

		eng := New(Config{Workers: 8, GroupSize: 1})
		parallel := newModel(t, name, d, 13)
		resP := eng.Train(parallel, src, 3, 0.2, nil)

		for e := range resS.EpochLoss {
			if math.Float64bits(resS.EpochLoss[e]) != math.Float64bits(resP.EpochLoss[e]) {
				t.Errorf("%s: epoch %d loss %v != serial %v (want bitwise identity)",
					name, e, resP.EpochLoss[e], resS.EpochLoss[e])
			}
		}
		if diff := maxAbsDiff(flatParams(t, serial), flatParams(t, parallel)); diff != 0 {
			t.Errorf("%s: weights diverge from serial by %g (want bitwise identity)", name, diff)
		}
	}
}
