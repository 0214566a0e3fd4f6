package ml

import (
	"testing"

	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/testutil"
)

// TestLinGradAllocs pins the allocation-free steady state promised by
// linGrad: with a warm kernel plan (tree already built) and a reused out
// buffer, every GLM gradient on a TOC batch allocates nothing — the
// score/residual vectors come from the pool and both multiplications
// write into caller-owned memory through the plan's Into kernels — and so
// does a whole Grad, which builds and releases its own plan.
func TestLinGradAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pool-hit pin cannot hold")
	}
	d, err := data.Generate("imagenet", 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(4)
	x, y := d.Batch(0, 128)
	c := formats.MustGet("TOC")(x)
	plan := c.(formats.ParallelOps).NewKernelPlan()
	yb := make([]float64, len(y))
	for i, yi := range y {
		if yi != 0 {
			yb[i] = 1
		}
	}
	models := map[string]*Linear{
		"linreg": NewLinReg(x.Cols()),
		"logreg": NewLogReg(x.Cols()),
		"svm":    NewSVM(x.Cols()),
	}
	for name, pg := range models {
		out := make([]float64, x.Cols()+1)
		pg.gradPlan(c, plan, yb, out) // build the tree, warm the scratch pool
		got := testing.AllocsPerRun(50, func() { pg.gradPlan(c, plan, yb, out) })
		if got != 0 {
			t.Errorf("%s: gradPlan allocates %.0f objects/op, want 0", name, got)
		}
	}
	plan.Release()

	// A whole Grad — plan built, both kernels, plan released — is what a
	// training step runs; with the plan's memory recycled through Release
	// it allocates nothing either.
	lr := NewLogReg(x.Cols())
	out := make([]float64, lr.NumParams())
	lr.Grad(c, yb, out) // warm the plan and scratch pools
	if got := testing.AllocsPerRun(50, func() { lr.Grad(c, yb, out) }); got != 0 {
		t.Errorf("logreg Grad allocates %.0f objects/op, want 0", got)
	}
	// Kernel workers are for A·M / M·A; a GLM gradient has neither, so
	// asking for them starts no goroutine and allocates nothing.
	lr.SetKernelWorkers(4)
	if got := testing.AllocsPerRun(50, func() { lr.Grad(c, yb, out) }); got != 0 {
		t.Errorf("logreg Grad after SetKernelWorkers(4) allocates %.0f objects/op, want 0", got)
	}
}
