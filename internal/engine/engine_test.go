package engine

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/matrix"
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
	return d, ml.NewMemorySource(d, 50, formats.MustGetCodec("TOC").Encode)
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
		return append([]float64(nil), v.P...)
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

// mustTrain runs e.Train and fails the test on an error.
func mustTrain(t testing.TB, e *Engine, m ml.Model, src ml.BatchSource, epochs int, lr float64) *ml.TrainResult {
	t.Helper()
	res, err := e.Train(m, src, epochs, lr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
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
		resP := mustTrain(t, eng, parallel, src, 3, 0.2)

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
		res1 := mustTrain(t, New(Config{Workers: 1, GroupSize: 8, Seed: 5}), m1, src, 3, 0.2)

		m8 := newModel(t, name, d, 11)
		res8 := mustTrain(t, New(Config{Workers: 8, GroupSize: 8, Seed: 5}), m8, src, 3, 0.2)

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
	pf := storage.NewPrefetcher(st, 6, 3, 0)
	defer pf.Close()

	m := newModel(t, "lr", d, 13)
	res := mustTrain(t, eng, m, pf, 3, 0.3)
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

// The headline win: the engine with the async prefetcher takes spill
// latency off the training loop's critical path on an out-of-core
// store, by the two overlaps a real device allows. The store's IO cost
// is a deterministic per-read seek that serializes within a shard: the
// serial loop pays every seek in line with its compute (each of its
// spilled visits is a read, and all of its ReadTime is waited for),
// while the prefetcher's readers keep all four shards seeking at once,
// ahead of the loop. (Bandwidth would not do: it is an aggregate cap
// that more readers share, not multiply.)
//
// The comparison is between the IO each loop waits for, not between
// wall clocks, which the race detector's CPU slowdown can erase: the
// engine's wait is the prefetcher's Stall plus its misses, each a
// synchronous read charged at the serial loop's mean read time. At
// group size 1 one gradient consumes a batch at a time, so Stall is the
// loop's own wait, not a sum over concurrent consumers.
func TestEngineBeatsSerialOnSpilledStore(t *testing.T) {
	if testing.Short() {
		t.Skip("seeks in real time")
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
	ml.Train(newModel(t, "lr", d, 17), serialStore, epochs, 0.2, nil)
	serial := serialStore.Stats()
	if want := int64(epochs * d.NumBatches(batchSize)); serial.Reads != want {
		t.Fatalf("serial loop read %d spilled batches, want every visit (%d)", serial.Reads, want)
	}

	engineStore := newStore()
	eng := New(Config{Workers: 8, GroupSize: 1})
	if err := eng.FillStore(engineStore, d, batchSize); err != nil {
		t.Fatal(err)
	}
	pf := storage.NewPrefetcher(engineStore, 12, 8, 0)
	defer pf.Close()
	mustTrain(t, eng, newModel(t, "lr", d, 17), pf, epochs, 0.2)
	ps := pf.Stats()

	// Only the first visit, asked for before any read was issued, may be
	// read in line.
	if ps.Misses > 1 {
		t.Errorf("engine read %d spilled batches in line, want at most the first: %+v", ps.Misses, ps)
	}
	exposed := ps.Stall + time.Duration(ps.Misses)*serial.ReadTime/time.Duration(serial.Reads)
	if exposed >= serial.ReadTime/2 {
		t.Errorf("engine waited %v for spill reads (stall %v, %d misses), serial %v: want under half",
			exposed, ps.Stall, ps.Misses, serial.ReadTime)
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
		mustTrain(t, eng, parallel, src, 2, 0.2)

		if diff := maxAbsDiff(flatParams(t, serial), flatParams(t, parallel)); diff != 0 {
			t.Errorf("%s: kernel-parallel weights diverge from serial by %g (want bitwise identity)", name, diff)
		}
	}
}

// cloneCounter counts the Clone calls made on a model and its clones.
type cloneCounter struct {
	ml.Model
	clones *atomic.Int64
}

func (c cloneCounter) Clone() ml.Model {
	c.clones.Add(1)
	return cloneCounter{c.Model.Clone(), c.clones}
}

// The pool split of the package doc: the gradients a step (or a staleness
// window) keeps in flight claim workers first, and each gradient's matrix
// kernels get what is left over. Workers clone the model only off
// staleness 0 — one clone per spawned worker, joins included — and share
// the live one at staleness 0, whose parameters a step never moves.
func TestKernelWorkersSplitThePool(t *testing.T) {
	d, src := testSource(t, "census", 500) // 10 batches
	for _, row := range []struct {
		name                      string
		workers, group, staleness int
		kernel                    int
	}{
		{"group 1", 8, 1, 0, 8},
		{"group 2", 8, 2, 0, 4},
		{"group 8", 8, 8, 0, 1},
		{"ram_nn_sync", 2, 2, 0, 1},
		{"staleness 3", 8, 1, 3, 2},
		{"staleness 8", 8, 1, 8, 1},
		{"unbounded", 8, 1, StalenessUnbounded, 1},
		{"spill_lr_async", 2, 1, 4, 1},
		{"group 2 staleness 3", 8, 2, 3, 2},
	} {
		e := New(Config{Workers: row.workers, GroupSize: row.group, Staleness: row.staleness})
		if got := e.KernelWorkers(src.NumBatches()); got != row.kernel {
			t.Errorf("%s: %d kernel workers, want %d", row.name, got, row.kernel)
		}
		var clones atomic.Int64
		joined := 0
		e.SetOnStep(func(step int64, _ float64) {
			if step == 1 {
				joined = e.AddWorkers(2)
			}
		})
		mustTrain(t, e, cloneCounter{newModel(t, "lr", d, 3), &clones}, src, 1, 0.2)
		want := int64(0)
		if row.staleness != 0 {
			want = int64(row.workers + joined)
		}
		if joined != 2 || clones.Load() != want {
			t.Errorf("%s: %d clones after %d joins, want %d after 2", row.name, clones.Load(), joined, want)
		}
	}
	if got := New(Config{Workers: 8, GroupSize: 8}).KernelWorkers(2); got != 4 {
		t.Errorf("group 8 over 2 batches: %d kernel workers, want 4", got)
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
		res := mustTrain(t, eng, m, pf, 3, 0.2)
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

// FillStore must produce the same layout and contents as serial Add,
// with fewer batches than its window and with many more.
func TestFillStoreMatchesSerialAdd(t *testing.T) {
	for _, tc := range []struct{ workers, rows int }{{8, 300}, {2, 2000}} {
		d, err := data.Generate("census", tc.rows, 6)
		if err != nil {
			t.Fatal(err)
		}
		newStore := func() *storage.Store {
			st, err := storage.NewStore(t.TempDir(), "TOC", 4096, storage.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			return st
		}
		serial := newStore()
		for i := 0; i < d.NumBatches(50); i++ {
			x, y := d.Batch(i, 50)
			if err := serial.Add(x, y); err != nil {
				t.Fatal(err)
			}
		}
		parallel := newStore()
		if err := New(Config{Workers: tc.workers}).FillStore(parallel, d, 50); err != nil {
			t.Fatal(err)
		}
		ss, ps := serial.Stats(), parallel.Stats()
		if ss.ResidentBatches != ps.ResidentBatches || ss.SpilledBatches != ps.SpilledBatches ||
			ss.ResidentBytes != ps.ResidentBytes || ss.SpilledBytes != ps.SpilledBytes {
			t.Fatalf("workers %d: layout differs: serial %+v parallel %+v", tc.workers, ss, ps)
		}
		if ss.SpilledBatches == 0 || ss.ResidentBatches == 0 {
			t.Fatalf("workers %d: want both resident and spilled batches, got %+v", tc.workers, ss)
		}
		if !slices.Equal(serial.ShardBytes(), parallel.ShardBytes()) {
			t.Fatalf("workers %d: shard bytes %v serially, %v in parallel", tc.workers, serial.ShardBytes(), parallel.ShardBytes())
		}
		for i := 0; i < serial.NumBatches(); i++ {
			a, ya := serial.Batch(i)
			b, yb := parallel.Batch(i)
			if serial.Resident(i) != parallel.Resident(i) || serial.ShardOf(i) != parallel.ShardOf(i) {
				t.Fatalf("workers %d, batch %d: resident %v on shard %d serially, %v on shard %d in parallel", tc.workers, i,
					serial.Resident(i), serial.ShardOf(i), parallel.Resident(i), parallel.ShardOf(i))
			}
			if !a.Decode().Equal(b.Decode()) || !bytes.Equal(a.Serialize(), b.Serialize()) {
				t.Fatalf("workers %d, batch %d contents differ", tc.workers, i)
			}
			if !slices.Equal(ya, yb) {
				t.Fatalf("workers %d, batch %d labels differ", tc.workers, i)
			}
		}
	}
}

// fillProbe watches FillStore through the "counted-TOC" codec: TOC whose
// encoder counts batches and whose batches count their Serialize calls.
// With every batch spilling, AddCompressed serializes each batch once, in
// order, so at batch k's Serialize k batches have been added and the
// lag — batches encoded but not yet added, k's own included — is
// encoded − k.
var fillProbe struct {
	sync.Mutex
	encoded, serialized, maxLag int64
}

type countedBatch struct{ formats.CompressedMatrix }

func (b countedBatch) Serialize() []byte {
	fillProbe.Lock()
	fillProbe.serialized++
	fillProbe.maxLag = max(fillProbe.maxLag, fillProbe.encoded-fillProbe.serialized+1)
	fillProbe.Unlock()
	return b.CompressedMatrix.Serialize()
}

func init() {
	toc := formats.MustGetCodec("TOC")
	formats.Register("counted-TOC", func(x *matrix.Dense) formats.CompressedMatrix {
		fillProbe.Lock()
		fillProbe.encoded++
		fillProbe.Unlock()
		return countedBatch{toc.Encode(x)}
	}, toc.Decode)
}

func resetFillProbe() {
	fillProbe.Lock()
	fillProbe.encoded, fillProbe.serialized, fillProbe.maxLag = 0, 0, 0
	fillProbe.Unlock()
}

// FillStore holds a bounded number of encoded batches however long the
// dataset: over 40 batches with 2 workers and every batch spilling, no
// batch is serialized while more than the window plus one per worker
// are encoded and not yet added.
func TestFillStoreLagIsBounded(t *testing.T) {
	const workers, batches = 2, 40
	d, err := data.Generate("census", batches*50, 6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.NewStore(t.TempDir(), "counted-TOC", 1) // all spilled
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	resetFillProbe()
	if err := New(Config{Workers: workers}).FillStore(st, d, 50); err != nil {
		t.Fatal(err)
	}
	if got := fillProbe.serialized; got != batches || st.Stats().SpilledBatches != batches {
		t.Fatalf("%d images serialized, %+v; want all %d batches spilled", got, st.Stats(), batches)
	}
	if lag, bound := fillProbe.maxLag, int64(fillWindow*workers+workers); lag > bound {
		t.Fatalf("%d batches encoded and not yet added at once, want at most %d", lag, bound)
	}
}

// The first add error stops FillStore: a store whose shard directory does
// not exist keeps the first five batches resident and fails to create
// its spill file at the sixth. FillStore returns that error, encodes no
// batch more than the window past it, and leaves no goroutine behind.
func TestFillStoreStopsAtFirstAddError(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	const workers, failAt = 2, 5
	d, err := data.Generate("census", 2000, 6)
	if err != nil {
		t.Fatal(err)
	}
	var budget int64
	for i := range failAt {
		x, _ := d.Batch(i, 50)
		budget += int64(formats.MustGetCodec("TOC").Encode(x).CompressedSize())
	}
	st, err := storage.NewStore(filepath.Join(t.TempDir(), "missing"), "counted-TOC", budget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	resetFillProbe()
	err = New(Config{Workers: workers}).FillStore(st, d, 50)
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "storage: create spill file") {
		t.Fatalf("FillStore error = %v, want the spill file's creation error", err)
	}
	if got := st.NumBatches(); got != failAt {
		t.Fatalf("%d batches stored, want the %d before the failure", got, failAt)
	}
	if got, most := fillProbe.encoded, int64(failAt+fillWindow*workers); got > most {
		t.Fatalf("%d batches encoded, want at most %d: none more than the window past batch %d", got, most, failAt)
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
		resP := mustTrain(t, eng, parallel, src, 3, 0.2)

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

// A spilled run reads every batch back through the prefetcher, which
// recycles it once its gradient has returned; a resident run recycles
// nothing. Under the sync engine and the deterministic async one both
// walk one trajectory, bit for bit — and under the race detector a batch
// used after its release is poisoned, which breaks the identity.
func TestSpilledMatchesResidentBitwise(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	d, mem := testSource(t, "census", 500)
	frontEnds := map[string]func(m ml.Model, src ml.BatchSource) (*ml.TrainResult, error){
		"sync": func(m ml.Model, src ml.BatchSource) (*ml.TrainResult, error) {
			return New(Config{Workers: 4, GroupSize: 2, Seed: 9}).TrainFrom(m, src, 3, 0.3, nil, nil)
		},
		"async": func(m ml.Model, src ml.BatchSource) (*ml.TrainResult, error) {
			return New(Config{Workers: 4, GroupSize: 1, Staleness: 3, Deterministic: true, Seed: 9}).Train(m, src, 3, 0.3, nil)
		},
	}
	for name, train := range frontEnds {
		want := newModel(t, "lr", d, 13)
		wantRes, err := train(want, mem)
		if err != nil {
			t.Fatal(err)
		}
		st, err := storage.NewStore(t.TempDir(), "TOC", 1, storage.WithShards(2)) // all spilled
		if err != nil {
			t.Fatal(err)
		}
		if err := New(Config{Workers: 2}).FillStore(st, d, 50); err != nil {
			t.Fatal(err)
		}
		pf := storage.NewPrefetcher(st, 4, 2, 0)
		got := newModel(t, "lr", d, 13)
		gotRes, err := train(got, pf)
		pf.Close()
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ps := pf.Stats(); ps.Hits == 0 {
			t.Errorf("%s: the prefetcher never hit: %+v", name, ps)
		}
		gp, wp := flatParams(t, got), flatParams(t, want)
		assertBitwise(t, name+" spilled", gp, wp, gotRes.EpochLoss, wantRes.EpochLoss)
		for i := range wp {
			if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) { // NaN too
				t.Fatalf("%s: spilled parameter %d is %v, resident %v", name, i, gp[i], wp[i])
			}
		}
	}
}
