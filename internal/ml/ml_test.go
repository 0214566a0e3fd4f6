package ml

import (
	"math"
	"testing"
	"time"

	"toc/internal/core"
	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/matrix"
)

func denseBatch(x *matrix.Dense) formats.CompressedMatrix {
	return formats.MustGet("DEN")(x)
}

// analytic gradient via one tiny step (Grad then ApplyGrad, as Train
// runs it): grad = (W_before − W_after)/lr.
func stepGradient(t *testing.T, mk func() Model, getW func(Model) []float64,
	x *matrix.Dense, y []float64) []float64 {
	t.Helper()
	const lr = 1e-6
	m := mk()
	before := append([]float64(nil), getW(m)...)
	g := make([]float64, m.NumParams())
	m.Grad(denseBatch(x), y, g)
	m.ApplyGrad(g, lr)
	after := getW(m)
	g = make([]float64, len(before))
	for i := range g {
		g[i] = (before[i] - after[i]) / lr
	}
	return g
}

// numeric gradient of the loss via central differences on each weight.
func numericGradient(t *testing.T, mk func() Model, getW func(Model) []float64,
	x *matrix.Dense, y []float64) []float64 {
	t.Helper()
	const eps = 1e-6
	m := mk()
	w := getW(m)
	g := make([]float64, len(w))
	for i := range w {
		orig := w[i]
		w[i] = orig + eps
		lp := m.Loss(denseBatch(x), y)
		w[i] = orig - eps
		lm := m.Loss(denseBatch(x), y)
		w[i] = orig
		g[i] = (lp - lm) / (2 * eps)
	}
	return g
}

func gradCheck(t *testing.T, name string, mk func() Model, getW func(Model) []float64,
	x *matrix.Dense, y []float64, tol float64) {
	t.Helper()
	ga := stepGradient(t, mk, getW, x, y)
	gn := numericGradient(t, mk, getW, x, y)
	for i := range ga {
		if math.Abs(ga[i]-gn[i]) > tol*(1+math.Abs(gn[i])) {
			t.Errorf("%s: grad[%d] analytic %v vs numeric %v", name, i, ga[i], gn[i])
		}
	}
}

func smallProblem() (*matrix.Dense, []float64) {
	x := matrix.NewDenseFromRows([][]float64{
		{1, 0.5, 0},
		{0, 1.5, 1},
		{1, 0, 1},
		{0.5, 0.5, 0.5},
	})
	y := []float64{1, 0, 1, 0}
	return x, y
}

func TestLinRegGradient(t *testing.T) {
	x, y := smallProblem()
	mk := func() Model {
		m := NewLinReg(3)
		m.W = []float64{0.3, -0.2, 0.1}
		return m
	}
	gradCheck(t, "linreg", mk, func(m Model) []float64 { return m.(*Linear).W }, x, y, 1e-5)
}

func TestLogRegGradient(t *testing.T) {
	x, y := smallProblem()
	mk := func() Model {
		m := NewLogReg(3)
		m.W = []float64{0.3, -0.2, 0.1}
		return m
	}
	gradCheck(t, "logreg", mk, func(m Model) []float64 { return m.(*Linear).W }, x, y, 1e-5)
}

func TestSVMGradient(t *testing.T) {
	x, y := smallProblem()
	mk := func() Model {
		m := NewSVM(3)
		m.L2 = 0 // hinge only; L2 would shift step vs Loss comparison
		m.W = []float64{0.05, -0.02, 0.01}
		return m
	}
	gradCheck(t, "svm", mk, func(m Model) []float64 { return m.(*Linear).W }, x, y, 1e-4)
}

func TestNNGradientFirstLayer(t *testing.T) {
	x, y := smallProblem()
	mk := func() Model { return NewNN(3, []int{4}, 2, 42) }
	getW := func(m Model) []float64 { return m.(*NN).W[0].Data() }
	gradCheck(t, "nn-W0", mk, getW, x, y, 1e-4)
}

func TestNNGradientOutputLayerMulticlass(t *testing.T) {
	x, _ := smallProblem()
	y := []float64{2, 0, 1, 2}
	mk := func() Model { return NewNN(3, []int{4}, 3, 7) }
	getW := func(m Model) []float64 { return m.(*NN).W[1].Data() }
	gradCheck(t, "nn-Wout", mk, getW, x, y, 1e-4)
	getW0 := func(m Model) []float64 { return m.(*NN).W[0].Data() }
	gradCheck(t, "nn-W0-mc", mk, getW0, x, y, 1e-4)
}

// Training with compressed batches must produce exactly the same model as
// training with dense batches: the strongest end-to-end check that every
// compressed kernel is correct in context.
func TestCompressedTrainingMatchesDense(t *testing.T) {
	d, err := data.Generate("census", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(2)
	for _, model := range []string{"lr", "svm", "linreg", "nn"} {
		ref, _ := NewModel(model, d.X.Cols(), d.Classes, 0.1, 5)
		denSrc := NewMemorySource(d, 50, formats.MustGet("DEN"))
		Train(ref, denSrc, 3, 0.1, nil)

		for _, format := range []string{"TOC", "CSR", "CVI", "CLA", "Gzip"} {
			m2, _ := NewModel(model, d.X.Cols(), d.Classes, 0.1, 5)
			src := NewMemorySource(d, 50, formats.MustGet(format))
			Train(m2, src, 3, 0.1, nil)
			if !modelsClose(ref, m2, 1e-8) {
				t.Errorf("%s trained with %s differs from DEN", model, format)
			}
		}
	}
}

func modelsClose(a, b Model, tol float64) bool {
	va, vb := flattenParams(a), flattenParams(b)
	if len(va) != len(vb) {
		return false
	}
	for i := range va {
		if math.Abs(va[i]-vb[i]) > tol {
			return false
		}
	}
	return true
}

func flattenParams(m Model) []float64 {
	switch v := m.(type) {
	case *Linear:
		return append(append([]float64(nil), v.W...), v.B)
	case *NN:
		var out []float64
		for l := range v.W {
			out = append(out, v.W[l].Data()...)
			out = append(out, v.B[l]...)
		}
		return out
	case *OneVsRest:
		var out []float64
		for _, sub := range v.Models {
			out = append(out, flattenParams(sub)...)
		}
		return out
	}
	return nil
}

func TestLogRegLearnsSeparableData(t *testing.T) {
	d, _ := data.Generate("census", 1500, 3)
	d.ShuffleOnce(4)
	m := NewLogReg(d.X.Cols())
	src := NewMemorySource(d, 100, formats.MustGet("TOC"))
	res := Train(m, src, 8, 0.5, nil)
	if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0] {
		t.Fatalf("loss did not decrease: %v", res.EpochLoss)
	}
	if err := EvaluateError(m, src); err > 0.25 {
		t.Fatalf("training error %.3f too high", err)
	}
}

func TestSVMLearns(t *testing.T) {
	d, _ := data.Generate("kdd99", 1200, 5)
	d.ShuffleOnce(6)
	m := NewSVM(d.X.Cols())
	src := NewMemorySource(d, 100, formats.MustGet("TOC"))
	Train(m, src, 10, 0.2, nil)
	if err := EvaluateError(m, src); err > 0.3 {
		t.Fatalf("training error %.3f too high", err)
	}
}

func TestNNLearnsMulticlass(t *testing.T) {
	d, _ := data.Generate("mnist", 1200, 7)
	d.ShuffleOnce(8)
	m := NewNN(d.X.Cols(), []int{20, 10}, d.Classes, 9)
	src := NewMemorySource(d, 100, formats.MustGet("TOC"))
	res := Train(m, src, 15, 0.8, nil)
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if last >= first {
		t.Fatalf("NN loss did not decrease: first %.4f last %.4f", first, last)
	}
	base := 1.0 - 1.0/float64(d.Classes) // error of random guessing
	if err := EvaluateError(m, src); err > base*0.9 {
		t.Fatalf("NN training error %.3f barely beats chance %.3f", err, base)
	}
}

func TestOneVsRestPredictsAllClasses(t *testing.T) {
	d, _ := data.Generate("mnist", 800, 10)
	d.ShuffleOnce(11)
	m := NewOneVsRest(d.Classes, func() *Linear { return NewLogReg(d.X.Cols()) })
	src := NewMemorySource(d, 100, formats.MustGet("CSR"))
	Train(m, src, 6, 0.5, nil)
	pred := m.Predict(src.batches[0])
	for _, p := range pred {
		if p < 0 || p >= float64(d.Classes) {
			t.Fatalf("prediction %v out of class range", p)
		}
	}
	if err := EvaluateError(m, src); err > 0.6 {
		t.Fatalf("OVR error %.3f too high", err)
	}
}

func TestMGDSpectrumBatchSizes(t *testing.T) {
	// MGD must run for batch sizes 1 (SGD) and |S| (BGD) as §2.1.2 notes.
	d, _ := data.Generate("census", 120, 13)
	for _, bs := range []int{1, 10, 120} {
		m := NewLogReg(d.X.Cols())
		src := NewMemorySource(d, bs, formats.MustGet("TOC"))
		res := Train(m, src, 2, 0.3, nil)
		if len(res.EpochLoss) != 2 {
			t.Fatalf("batch size %d: %d epochs recorded", bs, len(res.EpochLoss))
		}
	}
}

func TestTrainCallback(t *testing.T) {
	d, _ := data.Generate("census", 100, 14)
	m := NewLogReg(d.X.Cols())
	src := NewMemorySource(d, 50, formats.MustGet("DEN"))
	var calls int
	res := Train(m, src, 3, 0.1, func(epoch int, _ time.Duration, _ float64) { calls++ })
	if calls != 3 {
		t.Fatalf("callback ran %d times, want 3", calls)
	}
	if len(res.EpochTime) != 3 || res.Total <= 0 {
		t.Fatalf("result timings malformed: %+v", res)
	}
}

func TestNewModelNames(t *testing.T) {
	for _, name := range []string{"linreg", "lr", "svm", "nn"} {
		if _, err := NewModel(name, 10, 2, 1, 1); err != nil {
			t.Errorf("NewModel(%q): %v", name, err)
		}
	}
	if _, err := NewModel("nope", 10, 2, 1, 1); err == nil {
		t.Error("unknown model should error")
	}
	// multiclass dispatch
	m, _ := NewModel("lr", 10, 5, 1, 1)
	if _, ok := m.(*OneVsRest); !ok {
		t.Error("multiclass lr should be OneVsRest")
	}
	m2, _ := NewModel("nn", 10, 5, 1, 1)
	if nn := m2.(*NN); nn.Sizes[len(nn.Sizes)-1] != 5 {
		t.Error("multiclass nn output width wrong")
	}
}

// The kernel-worker knob must never change a gradient: every model's Grad
// at Workers=N is bitwise identical to Workers=1 on every scheme's batch,
// because each plan's kernels give the same bits at every worker count.
func TestKernelWorkersGradBitwiseIdentical(t *testing.T) {
	d, err := data.Generate("imagenet", 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(4)
	x, y := d.Batch(0, 200)
	for _, method := range formats.Names() {
		c := formats.MustGet(method)(x)
		for _, name := range []string{"linreg", "lr", "svm", "nn"} {
			mk := func() Model {
				m, err := NewModel(name, x.Cols(), d.Classes, 0.2, 11)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			serial := mk()
			want := make([]float64, serial.NumParams())
			wantLoss := serial.Grad(c, y, want)
			for _, workers := range []int{2, 7, 16} {
				m := mk()
				m.SetKernelWorkers(workers)
				got := make([]float64, m.NumParams())
				gotLoss := m.Grad(c, y, got)
				if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
					t.Fatalf("%s/%s workers=%d: loss %g != %g", method, name, workers, gotLoss, wantLoss)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%s workers=%d: gradient differs at %d", method, name, workers, i)
					}
				}
			}
		}
	}
}

// The per-step KernelPlan amortization, proven white-box: one Grad call
// on a TOC batch builds the decode tree C' exactly once — for every model
// family, including one-vs-rest, whose 10 per-class gradients (20
// compressed multiplications on mnist) historically paid 20 builds.
func TestGradBuildsDecodeTreeOncePerBatch(t *testing.T) {
	d, err := data.Generate("mnist", 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(6)
	x, y := d.Batch(0, 150)
	c := formats.MustGet("TOC")(x)
	for _, name := range []string{"linreg", "lr", "svm", "nn"} {
		for _, workers := range []int{1, 8} {
			m, err := NewModel(name, x.Cols(), d.Classes, 0.2, 9)
			if err != nil {
				t.Fatal(err)
			}
			m.SetKernelWorkers(workers)
			g := make([]float64, m.NumParams())
			m.Grad(c, y, g) // warm any lazy state
			before := core.TreeBuilds()
			m.Grad(c, y, g)
			if got := core.TreeBuilds() - before; got != 1 {
				t.Errorf("%s workers=%d: Grad built C' %d times, want exactly 1", name, workers, got)
			}
		}
	}
}
