package core

import (
	"math/rand"
	"runtime"
	"testing"

	"toc/internal/data"
	"toc/internal/matrix"
	"toc/internal/testutil"
)

// The kernel steady state allocates nothing but the result buffer: the
// decode tree is cached in the plan and every accumulator comes from the
// shared scratch pool. These tests pin that property — a kernel change
// that starts allocating per call (a lost pool hit, an accidental
// per-call tree rebuild) fails here long before it shows up as a
// throughput regression.
//
// AllocsPerRun runs at GOMAXPROCS(1); the sequential (workers=1) path is
// the one measured. Parallel shards spawn goroutines, which allocate by
// design.

func TestKernelPlanSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pool-hit pin cannot hold")
	}
	rng := rand.New(rand.NewSource(900))
	rows, cols := 64, 16
	for name, b := range rightMulBatches(rng, rows, cols) {
		plan := b.NewKernelPlan()
		vr := randVec(rng, cols)
		vl := randVec(rng, rows)
		mr := matrix.NewDense(cols, 4)
		fillRand(rng, mr)
		ml := matrix.NewDense(4, rows)
		fillRand(rng, ml)

		// One allocation: the result slice. Everything else is pooled.
		if got := testing.AllocsPerRun(50, func() { plan.MulVec(vr, 1) }); got > 1 {
			t.Errorf("%s: MulVec allocates %.0f objects/op, want <= 1 (the result)", name, got)
		}
		if got := testing.AllocsPerRun(50, func() { plan.VecMul(vl, 1) }); got > 1 {
			t.Errorf("%s: VecMul allocates %.0f objects/op, want <= 1 (the result)", name, got)
		}
		// Matrix results are a Dense header plus its backing array.
		if got := testing.AllocsPerRun(50, func() { plan.MulMat(mr, 1) }); got > 2 {
			t.Errorf("%s: MulMat allocates %.0f objects/op, want <= 2 (the result)", name, got)
		}
		if got := testing.AllocsPerRun(50, func() { plan.MatMul(ml, 1) }); got > 2 {
			t.Errorf("%s: MatMul allocates %.0f objects/op, want <= 2 (the result)", name, got)
		}
	}
}

// Deserialize sits on the spilled read path, once per visit: what it
// allocates beyond the arrays the Batch keeps is garbage the collector
// has to chase on every step. Pin the total at 1.5x what the returned
// Batch retains (I, D and the image it aliases) on the benchmark's batch
// shape — building the encode-side value->index map per decode, or
// staging I through |I|-sized column/value temporaries, breaks it.
func TestDeserializeAllocBytes(t *testing.T) {
	d, err := data.Generate("imagenet", 250, 1)
	if err != nil {
		t.Fatal(err)
	}
	img := Compress(d.X).Serialize()
	b, err := Deserialize(img)
	if err != nil {
		t.Fatal(err)
	}
	retained := 16*len(b.i) + 4*len(b.d.Nodes) + 4*len(b.d.Starts) + len(img)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Deserialize(img); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := int((after.TotalAlloc - before.TotalAlloc) / runs)
	if limit := retained * 3 / 2; got > limit {
		t.Errorf("Deserialize allocates %d B/op (%d allocs/op) for a batch retaining %d B, want <= %d",
			got, (after.Mallocs-before.Mallocs)/runs, retained, limit)
	}
}
