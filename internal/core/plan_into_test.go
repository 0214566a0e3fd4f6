package core

import (
	"math"
	"math/rand"
	"testing"

	"toc/internal/matrix"
	"toc/internal/testutil"
)

// The Into kernels' bitwise contract covers the destination too: for any
// dst state (nil, dirty, reused) and any worker count the written bits
// match the sequential allocating call, and with a caller-owned dst the
// sequential path allocates nothing at all.

func dirtyVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

func dirtyMat(rows, cols int) *matrix.Dense {
	m := matrix.NewDense(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = math.Inf(-1)
	}
	return m
}

func TestPlanIntoBitwiseIdentical(t *testing.T) {
	workerCounts := []int{1, 2, 7, 16}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		rows := 8 + rng.Intn(100)
		cols := 1 + rng.Intn(40)
		for name, b := range rightMulBatches(rng, rows, cols) {
			plan := b.NewKernelPlan()
			vr := randVec(rng, cols)
			vl := randVec(rng, rows)
			p := 1 + rng.Intn(9)
			mr := matrix.NewDense(cols, p)
			fillRand(rng, mr)
			mml := matrix.NewDense(p, rows)
			fillRand(rng, mml)
			for _, w := range workerCounts {
				if got := plan.MulVecInto(dirtyVec(rows), vr, w); !bitsEqual(got, plan.MulVecInto(nil, vr, 1)) {
					t.Fatalf("seed %d %s workers=%d: MulVecInto differs", seed, name, w)
				}
				if got := plan.VecMulInto(dirtyVec(cols), vl, w); !bitsEqual(got, plan.VecMulInto(nil, vl, 1)) {
					t.Fatalf("seed %d %s workers=%d: VecMulInto differs", seed, name, w)
				}
				if got := plan.MulMatInto(dirtyMat(rows, p), mr, w); !got.Equal(plan.MulMatInto(nil, mr, 1)) {
					t.Fatalf("seed %d %s workers=%d: MulMatInto differs", seed, name, w)
				}
				if got := plan.MatMulInto(dirtyMat(p, cols), mml, w); !got.Equal(plan.MatMulInto(nil, mml, 1)) {
					t.Fatalf("seed %d %s workers=%d: MatMulInto differs", seed, name, w)
				}
			}
			// nil dst allocates, like the Batch methods.
			if got := plan.MulVecInto(nil, vr, 1); !bitsEqual(got, b.MulVec(vr)) {
				t.Fatalf("seed %d %s: MulVecInto(nil) differs", seed, name)
			}
		}
	}
}

func TestPlanIntoShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(710))
	b := Compress(redundantMatrix(rng, 16, 8, 0.9, 3))
	plan := b.NewKernelPlan()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s with wrong-shape dst should panic", name)
			}
		}()
		fn()
	}
	mustPanic("MulVecInto", func() { plan.MulVecInto(make([]float64, 3), randVec(rng, 8), 1) })
	mustPanic("VecMulInto", func() { plan.VecMulInto(make([]float64, 3), randVec(rng, 16), 1) })
	mustPanic("MulMatInto", func() { plan.MulMatInto(matrix.NewDense(2, 2), matrix.NewDense(8, 4), 1) })
	mustPanic("MatMulInto", func() { plan.MatMulInto(matrix.NewDense(2, 2), matrix.NewDense(4, 16), 1) })
}

// TestPlanIntoAllocs pins the zero-allocation steady state: with a
// caller-owned destination and workers=1, no kernel allocates — the tree
// is held by the plan, accumulators come from the scratch pool, and the
// result lands in dst — and neither does building and releasing the plan
// itself. The two vector kernels run on the caller's goroutine whatever
// workers says, so they allocate nothing at workers=8 either: a fork
// would cost its closures and WaitGroup.
func TestPlanIntoAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pool-hit pin cannot hold")
	}
	rng := rand.New(rand.NewSource(720))
	rows, cols := 64, 16
	for name, b := range rightMulBatches(rng, rows, cols) {
		plan := b.NewKernelPlan()
		vr := randVec(rng, cols)
		vl := randVec(rng, rows)
		mr := matrix.NewDense(cols, 4)
		fillRand(rng, mr)
		mml := matrix.NewDense(4, rows)
		fillRand(rng, mml)
		dv := make([]float64, rows)
		dc := make([]float64, cols)
		dmr := matrix.NewDense(rows, 4)
		dml := matrix.NewDense(4, cols)

		for _, w := range []int{1, 8} {
			if got := testing.AllocsPerRun(50, func() { plan.MulVecInto(dv, vr, w) }); got != 0 {
				t.Errorf("%s workers=%d: MulVecInto allocates %.0f objects/op, want 0", name, w, got)
			}
			if got := testing.AllocsPerRun(50, func() { plan.VecMulInto(dc, vl, w) }); got != 0 {
				t.Errorf("%s workers=%d: VecMulInto allocates %.0f objects/op, want 0", name, w, got)
			}
		}
		if got := testing.AllocsPerRun(50, func() { plan.MulMatInto(dmr, mr, 1) }); got != 0 {
			t.Errorf("%s: MulMatInto allocates %.0f objects/op, want 0", name, got)
		}
		if got := testing.AllocsPerRun(50, func() { plan.MatMulInto(dml, mml, 1) }); got != 0 {
			t.Errorf("%s: MatMulInto allocates %.0f objects/op, want 0", name, got)
		}
		// The whole life of a plan, as a gradient step lives it: build,
		// forward and backward kernel, release. The plan and its tree come
		// back out of the pool, so the cycle allocates nothing either.
		plan.Release()
		step := func() {
			p := b.NewKernelPlan()
			p.MulVecInto(dv, vr, 1)
			p.VecMulInto(dc, vl, 1)
			p.Release()
		}
		step() // warm the plan pool
		if got := testing.AllocsPerRun(50, step); got != 0 {
			t.Errorf("%s: NewKernelPlan + kernels + Release allocates %.0f objects/op, want 0", name, got)
		}
	}
}
