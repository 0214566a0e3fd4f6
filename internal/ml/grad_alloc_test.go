package ml

import (
	"testing"

	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/matrix"
	"toc/internal/testutil"
)

// TestLinGradAllocs pins the allocation-free steady state promised by
// linGrad: with a warm kernel plan (tree already built) and a reused out
// buffer, every GLM gradient on a TOC batch allocates nothing — the
// score/residual vectors come from the pool and both multiplications
// write into caller-owned memory through the plan's Into kernels — and so
// does a whole Grad, which builds and releases its own plan, on TOC and on
// DEN, CSR, CVI and DVI, whose plans are the batch itself, for a binary
// and for a 10-class one-vs-rest model.
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
	plan := c.NewKernelPlan()
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
		pg.gradPlan(c, plan, 0, yb, out) // build the tree, warm the scratch pool
		got := testing.AllocsPerRun(50, func() { pg.gradPlan(c, plan, 0, yb, out) })
		if got != 0 {
			t.Errorf("%s: gradPlan allocates %.0f objects/op, want 0", name, got)
		}
	}
	plan.Release()

	// A whole Grad — plan built, both kernels, plan released — is what a
	// training step runs; with the plan's memory recycled through Release
	// it allocates nothing either, for a binary model's A·v + v·A and a
	// 10-class one-vs-rest model's ten of them alike.
	lr := NewLogReg(x.Cols())
	md, err := data.Generate("mnist", 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	mx, my := md.Batch(0, 128)
	ovr, err := NewModel("lr", mx.Cols(), md.Classes, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name string
		m    Model
		x    *matrix.Dense
		y    []float64
	}{
		{"logreg", lr, x, yb},
		{"10-class lr", ovr, mx, my},
	} {
		out := make([]float64, in.m.NumParams())
		for _, method := range []string{"TOC", "DEN", "CSR", "CVI", "DVI"} {
			batch := formats.MustGet(method)(in.x)
			in.m.Grad(batch, in.y, out) // warm the plan and scratch pools
			if got := testing.AllocsPerRun(50, func() { in.m.Grad(batch, in.y, out) }); got != 0 {
				t.Errorf("%s: %s Grad allocates %.0f objects/op, want 0", method, in.name, got)
			}
		}
	}
	// Kernel workers are for A·M / M·A; a GLM gradient has neither, so
	// asking for them starts no goroutine and allocates nothing.
	out := make([]float64, lr.NumParams())
	lr.SetKernelWorkers(4)
	if got := testing.AllocsPerRun(50, func() { lr.Grad(c, yb, out) }); got != 0 {
		t.Errorf("logreg Grad after SetKernelWorkers(4) allocates %.0f objects/op, want 0", got)
	}
}
