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
	return formats.MustGetCodec("DEN").Encode(x)
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
	// Each column of a one-vs-rest Linear steps on its own class's mean
	// loss while Loss reports the mean over the K classes, so its Grad is
	// K·∇Loss.
	if lin, ok := mk().(*Linear); ok {
		for i := range gn {
			gn[i] *= float64(lin.K)
		}
	}
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
		copy(m.P, []float64{0.3, -0.2, 0.1})
		return m
	}
	gradCheck(t, "linreg", mk, linParams, x, y, 1e-5)
}

func TestLogRegGradient(t *testing.T) {
	x, y := smallProblem()
	mk := func() Model {
		m := NewLogReg(3)
		copy(m.P, []float64{0.3, -0.2, 0.1})
		return m
	}
	gradCheck(t, "logreg", mk, linParams, x, y, 1e-5)
}

// linParams is a Linear's flat parameter vector, every weight and bias.
func linParams(m Model) []float64 { return m.(*Linear).P }

// A K-column Linear's gradient, every class's weights and bias, is K
// times the numeric gradient of its Loss, the mean over classes of each
// class's one-vs-rest logistic loss: each class steps on its own loss.
func TestMulticlassLogRegGradient(t *testing.T) {
	x, _ := smallProblem()
	y := []float64{2, 0, 1, 2}
	mk := func() Model {
		m, _ := NewModel("lr", 3, 3, 1, 1)
		copy(m.(*Linear).P, []float64{0.3, -0.2, 0.1, 0.05, -0.1, 0.2, 0.4, -0.3, 0.2, -0.15, 0.1, 0})
		return m
	}
	gradCheck(t, "logreg-3class", mk, linParams, x, y, 1e-5)
}

// crossEntropy takes one log for a 0/1 label and must give the two-log
// form's bits, for every probability the logistic loss can hand it: a z
// grid through sigmoid and clampProb with ±0, ±Inf, NaN and both clamp
// edges, and the clamp values themselves.
func TestCrossEntropyOneLogMatchesTwoLog(t *testing.T) {
	twoLog := func(y, pc float64) float64 { return -(y*math.Log(pc) + (1-y)*math.Log(1-pc)) }
	var pcs []float64
	zs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, -1e-300, 700, -700, 1e300, -1e300}
	for z := -40.0; z <= 40; z += 0.37 {
		zs = append(zs, z)
	}
	// sigmoid(z) crosses the clamp edges 1e-12 and 1-1e-12 near z = ±27.631.
	for z := 27.62; z <= 27.64; z += 0.0005 {
		zs = append(zs, z, -z)
	}
	for _, z := range zs {
		pcs = append(pcs, clampProb(sigmoid(z)))
	}
	const eps = 1e-12
	pcs = append(pcs, eps, 1-eps, math.Nextafter(eps, 1), math.Nextafter(1-eps, 0), 0.5)
	for _, pc := range pcs {
		for _, y := range []float64{0, 1} {
			if got, want := crossEntropy(y, pc), twoLog(y, pc); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("y=%v pc=%v: one log gives %v (%#x), two logs %v (%#x)", y, pc, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	// Any other label keeps the two-log form.
	if got, want := crossEntropy(0.25, 0.5), twoLog(0.25, 0.5); got != want {
		t.Errorf("y=0.25: %v, want %v", got, want)
	}
}

func TestSVMGradient(t *testing.T) {
	x, y := smallProblem()
	mk := func() Model {
		m := NewSVM(3)
		m.L2 = 0 // hinge only; L2 would shift step vs Loss comparison
		copy(m.P, []float64{0.05, -0.02, 0.01})
		return m
	}
	gradCheck(t, "svm", mk, linParams, x, y, 1e-4)
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
		denSrc := NewMemorySource(d, 50, formats.MustGetCodec("DEN").Encode)
		Train(ref, denSrc, 3, 0.1, nil)

		for _, format := range []string{"TOC", "CSR", "CVI", "CLA", "Gzip"} {
			m2, _ := NewModel(model, d.X.Cols(), d.Classes, 0.1, 5)
			src := NewMemorySource(d, 50, formats.MustGetCodec(format).Encode)
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
		return append([]float64(nil), v.P...)
	case *NN:
		var out []float64
		for l := range v.W {
			out = append(out, v.W[l].Data()...)
			out = append(out, v.B[l]...)
		}
		return out
	}
	return nil
}

func TestLogRegLearnsSeparableData(t *testing.T) {
	d, _ := data.Generate("census", 1500, 3)
	d.ShuffleOnce(4)
	m := NewLogReg(d.X.Cols())
	src := NewMemorySource(d, 100, formats.MustGetCodec("TOC").Encode)
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
	src := NewMemorySource(d, 100, formats.MustGetCodec("TOC").Encode)
	Train(m, src, 10, 0.2, nil)
	if err := EvaluateError(m, src); err > 0.3 {
		t.Fatalf("training error %.3f too high", err)
	}
}

func TestNNLearnsMulticlass(t *testing.T) {
	d, _ := data.Generate("mnist", 1200, 7)
	d.ShuffleOnce(8)
	m := NewNN(d.X.Cols(), []int{20, 10}, d.Classes, 9)
	src := NewMemorySource(d, 100, formats.MustGetCodec("TOC").Encode)
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
	m := newLinear(logistic, d.X.Cols(), d.Classes)
	src := NewMemorySource(d, 100, formats.MustGetCodec("CSR").Encode)
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
		src := NewMemorySource(d, bs, formats.MustGetCodec("TOC").Encode)
		res := Train(m, src, 2, 0.3, nil)
		if len(res.EpochLoss) != 2 {
			t.Fatalf("batch size %d: %d epochs recorded", bs, len(res.EpochLoss))
		}
	}
}

func TestTrainCallback(t *testing.T) {
	d, _ := data.Generate("census", 100, 14)
	m := NewLogReg(d.X.Cols())
	src := NewMemorySource(d, 50, formats.MustGetCodec("DEN").Encode)
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
	if lin, ok := m.(*Linear); !ok || lin.K != 5 || lin.NumParams() != 5*11 {
		t.Errorf("multiclass lr is %T, want a 5-column Linear", m)
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
	for _, dataset := range []string{"imagenet", "mnist"} { // binary, and 10 classes
		d, err := data.Generate(dataset, 200, 3)
		if err != nil {
			t.Fatal(err)
		}
		d.ShuffleOnce(4)
		x, y := d.Batch(0, 200)
		for _, method := range formats.Names() {
			c := formats.MustGetCodec(method).Encode(x)
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
						t.Fatalf("%s/%s/%s workers=%d: loss %g != %g", dataset, method, name, workers, gotLoss, wantLoss)
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%s/%s workers=%d: gradient differs at %d", dataset, method, name, workers, i)
						}
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
	c := formats.MustGetCodec("TOC").Encode(x)
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
