package core

import (
	"math/rand"
	"sync"
	"testing"

	"toc/internal/data"
	"toc/internal/matrix"
)

// A plan call must be bitwise identical to the corresponding Batch method
// (the plan used once, sequentially) for every variant and every worker
// count — the contract that lets the ml layer thread one plan through a
// step's kernels without changing any trajectory.
func TestKernelPlanMatchesBatchKernels(t *testing.T) {
	workerCounts := []int{0, 1, 2, 7, 16}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		rows := 8 + rng.Intn(100)
		cols := 2 + rng.Intn(30)
		for name, b := range rightMulBatches(rng, rows, cols) {
			plan := b.NewKernelPlan()
			vr := randVec(rng, cols)
			vl := randVec(rng, rows)
			mr := matrix.NewDense(cols, 5)
			fillRand(rng, mr)
			ml := matrix.NewDense(5, rows)
			fillRand(rng, ml)
			wantMulVec := b.MulVec(vr)
			wantVecMul := b.VecMul(vl)
			wantMulMat := b.MulMat(mr)
			wantMatMul := b.MatMul(ml)
			for _, w := range workerCounts {
				if !bitsEqual(plan.MulVecInto(nil, vr, w), wantMulVec) {
					t.Fatalf("seed %d %s workers=%d: plan MulVec differs", seed, name, w)
				}
				if !bitsEqual(plan.VecMulInto(nil, vl, w), wantVecMul) {
					t.Fatalf("seed %d %s workers=%d: plan VecMul differs", seed, name, w)
				}
				if !bitsEqual(plan.MulMatInto(nil, mr, w).Data(), wantMulMat.Data()) {
					t.Fatalf("seed %d %s workers=%d: plan MulMat differs", seed, name, w)
				}
				if !bitsEqual(plan.MatMulInto(nil, ml, w).Data(), wantMatMul.Data()) {
					t.Fatalf("seed %d %s workers=%d: plan MatMul differs", seed, name, w)
				}
			}
		}
	}
}

// One plan hammered from many goroutines (each mixing all four kernels
// and worker counts) must keep returning bitwise-correct results: the
// plan's tree is read-only and accumulators are pooled per call. CI runs
// this under -race at GOMAXPROCS=2, where shard interleavings are
// nastiest.
func TestKernelPlanConcurrentReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for name, b := range rightMulBatches(rng, 120, 24) {
		plan := b.NewKernelPlan()
		vr := randVec(rng, 24)
		vl := randVec(rng, 120)
		mr := matrix.NewDense(24, 6)
		fillRand(rng, mr)
		ml := matrix.NewDense(6, 120)
		fillRand(rng, ml)
		wantMulVec := b.MulVec(vr)
		wantVecMul := b.VecMul(vl)
		wantMulMat := b.MulMat(mr)
		wantMatMul := b.MatMul(ml)

		const goroutines, iters = 8, 20
		errs := make(chan string, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					w := (g + it) % 5 // 0..4 workers, mixed per call
					if !bitsEqual(plan.MulVecInto(nil, vr, w), wantMulVec) {
						errs <- name + ": concurrent plan MulVec diverged"
						return
					}
					if !bitsEqual(plan.VecMulInto(nil, vl, w), wantVecMul) {
						errs <- name + ": concurrent plan VecMul diverged"
						return
					}
					if !bitsEqual(plan.MulMatInto(nil, mr, w).Data(), wantMulMat.Data()) {
						errs <- name + ": concurrent plan MulMat diverged"
						return
					}
					if !bitsEqual(plan.MatMulInto(nil, ml, w).Data(), wantMatMul.Data()) {
						errs <- name + ": concurrent plan MatMul diverged"
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// The white-box build counter: constructing a plan costs exactly one C'
// build, and kernel calls through the plan cost zero more — while the
// plain Batch kernels pay one build per call.
func TestKernelPlanBuildCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := redundantMatrix(rng, 60, 12, 0.5, 4)
	v := randVec(rng, 12)
	u := randVec(rng, 60)

	b := Compress(a)
	before := TreeBuilds()
	plan := b.NewKernelPlan()
	if got := TreeBuilds() - before; got != 1 {
		t.Fatalf("NewKernelPlan: %d tree builds, want 1", got)
	}
	before = TreeBuilds()
	plan.MulVecInto(nil, v, 1)
	plan.VecMulInto(nil, u, 4)
	plan.MulMatInto(nil, matrix.NewDense(12, 3), 2)
	plan.MatMulInto(nil, matrix.NewDense(3, 60), 2)
	if got := TreeBuilds() - before; got != 0 {
		t.Fatalf("plan kernel calls: %d tree builds, want 0", got)
	}
	before = TreeBuilds()
	b.MulVec(v)
	b.VecMul(u)
	if got := TreeBuilds() - before; got != 2 {
		t.Fatalf("plain kernel calls: %d tree builds, want 2 (one per op)", got)
	}
}

func TestKernelPlanDimMismatchPanics(t *testing.T) {
	plan := Compress(matrix.NewDense(30, 4)).NewKernelPlan()
	for name, call := range map[string]func(){
		"MulVecInto": func() { plan.MulVecInto(nil, make([]float64, 3), 2) },
		"VecMulInto": func() { plan.VecMulInto(nil, make([]float64, 3), 2) },
		"MulMatInto": func() { plan.MulMatInto(nil, matrix.NewDense(3, 2), 2) },
		"MatMulInto": func() { plan.MatMulInto(nil, matrix.NewDense(2, 3), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkKernelPlanStep measures one model step's kernel pair (A·v
// forward + v·A backward) with and without a shared plan — the per-step
// decode-tree amortization the plan exists for. The claim it carries:
// shared-plan (one build, both kernels, Release) must be FASTER than
// per-op-build (two builds into pooled scratch) and allocate nothing;
// if it is the slower row, the plan costs the step more than the build
// it saves. Measured on the 2-core 2.1 GHz Xeon (-cpu 1, five
// alternating runs against the full-tree build): per-op-build 95-125 →
// 70-74 us/op, 2 allocs; shared-plan 65-102 → 53-63 us/op, 0 allocs.
func BenchmarkKernelPlanStep(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	batch := Compress(redundantMatrix(rng, 2000, 120, 0.6, 5))
	v := randVec(rng, 120)
	u := randVec(rng, 2000)
	dv := make([]float64, 2000)
	du := make([]float64, 120)
	b.Run("per-op-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch.MulVec(v)
			batch.VecMul(u)
		}
	})
	b.Run("shared-plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan := batch.NewKernelPlan()
			plan.MulVecInto(dv, v, 1)
			plan.VecMulInto(du, u, 1)
			plan.Release()
		}
	})
}

// benchBatches compresses n consecutive 250-row batches of a generator
// dataset, the shape the benchmark's workloads step through.
func benchBatches(b *testing.B, name string, n int) []*Batch {
	b.Helper()
	const rows = 250
	ds, err := data.Generate(name, rows*n, 1)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]*Batch, n)
	for k := range out {
		m, _ := ds.Batch(k, rows)
		out[k] = Compress(m)
	}
	return out
}

// BenchmarkPlanBuild measures NewKernelPlan + Release — the per-step
// decode-tree build — cycling 256 batches so D and the creation bitmap
// come from memory the way a training pass finds them, not from L1.
// Measured on the 2-core 2.1 GHz Xeon (-cpu 1, five alternating runs):
// the full-tree build of Algorithm 2 as written ran 13.7-14.8 us/op on
// imagenet and 28.7-35.5 on mnist; the live-only build runs 6.9-7.4 and
// 14.6-17.2, 0 allocs.
func BenchmarkPlanBuild(b *testing.B) {
	for _, name := range []string{"imagenet", "mnist"} {
		batches := benchBatches(b, name, 256)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batches[i%len(batches)].NewKernelPlan().Release()
			}
		})
	}
}

// BenchmarkCompress measures core.Compress on the benchmark's ingest
// shape — 250×180 imagenet batches, 64 of them cycling so the pooled
// encoder sees the batch-to-batch variation a FillStore pass does —
// reporting dense MB/s. Measured on the 2-core 2.6 GHz Xeon: the
// map-keyed Algorithm 1 ran 3.67-3.78 ms/op (95-98 MB/s), 2.89 MB and
// 2171 allocs per batch; the pooled open-addressed encoder runs
// 0.64-0.70 ms/op (515-560 MB/s), 105 KB and 5 allocs — what the Batch
// retains.
func BenchmarkCompress(b *testing.B) {
	const rows, batches = 250, 64
	ds, err := data.Generate("imagenet", rows*batches, 1)
	if err != nil {
		b.Fatal(err)
	}
	ms := make([]*matrix.Dense, batches)
	for k := range ms {
		ms[k], _ = ds.Batch(k, rows)
	}
	b.SetBytes(int64(8 * rows * ds.X.Cols()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compressSink = Compress(ms[i%batches])
	}
}

var compressSink *Batch
