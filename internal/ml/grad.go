package ml

import (
	"fmt"
	"math"
	"sync"

	"toc/internal/formats"
	"toc/internal/matrix"
)

// GradModel separates gradient computation from the parameter update so a
// data-parallel driver (internal/engine) can evaluate shards of a step's
// mini-batches concurrently against frozen parameters and merge the
// results deterministically before applying them once. For every model in
// this package, Step(x, y, lr) is exactly Grad into a buffer followed by
// ApplyGrad of that buffer — the serial and parallel drivers walk the same
// trajectory.
type GradModel interface {
	Model
	// NumParams returns the length of the model's flat parameter vector.
	NumParams() int
	// Grad computes the averaged mini-batch gradient (Equation 2) of (x, y)
	// against the current parameters, overwriting out (length NumParams())
	// with the flat gradient including any regularization terms, and
	// returns the mini-batch loss. It must not mutate the model, so
	// concurrent Grad calls on one model are safe.
	Grad(x formats.CompressedMatrix, y []float64, out []float64) float64
	// ApplyGrad performs the update params -= lr·g for a flat gradient g
	// laid out as Grad writes it.
	ApplyGrad(g []float64, lr float64)
}

// stepBuf returns a cached gradient buffer for Step's Grad+ApplyGrad
// round trip. Step mutates the model, so it is inherently serial and one
// buffer per model is safe; Grad itself never touches it, keeping
// concurrent Grad calls race-free.
func stepBuf(buf *[]float64, np int) []float64 {
	if len(*buf) != np {
		*buf = make([]float64, np)
	}
	return *buf
}

// linScratch holds the two per-call row vectors of linGrad (the A·w
// scores and the residuals). Grad must stay safe for concurrent calls on
// one model, so the buffers are pooled rather than model-owned.
type linScratch struct {
	s, r []float64
}

var linScratchPool = sync.Pool{New: func() any { return new(linScratch) }}

func (sc *linScratch) vec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// linGrad runs the shared GLM gradient shape — score the batch with A·w,
// turn per-row residuals into r, aggregate with r·A — writing the flat
// [dW..., dB] gradient into out and returning the mean loss. residual maps
// (score+bias, label) to (loss contribution, residual numerator). Both
// multiplications shard across workers goroutines when the encoding
// supports it and share the caller's kernel plan (one decode-tree build
// for the forward and backward passes); the gradient is bitwise
// independent of both the worker count and the plan.
//
// On a plan the whole gradient runs allocation-free: the score and
// residual vectors come from a pool and the v·A aggregation lands
// directly in out's weight slice (pinned by TestLinGradAllocs).
func linGrad(x formats.CompressedMatrix, plan formats.KernelPlan, y, w []float64, bias, l2 float64,
	workers int, out []float64, residual func(z, yi float64) (loss, r float64)) float64 {
	n := float64(x.Rows())
	sc := linScratchPool.Get().(*linScratch)
	defer linScratchPool.Put(sc)
	s := mulVec(sc.vec(&sc.s, x.Rows()), x, plan, w, workers)
	var loss, rsum float64
	r := sc.vec(&sc.r, len(s))
	for i := range s {
		li, ri := residual(s[i]+bias, y[i])
		loss += li
		rv := 0.0
		if ri != 0 {
			rv = ri / n
			rsum += rv
		}
		r[i] = rv
	}
	// g aliases out's weight slice on the plan path, so the l2 fold below
	// reads each g[j] before overwriting that same element — identical
	// arithmetic to folding from a fresh vector.
	g := vecMul(out[:len(w):len(w)], x, plan, r, workers)
	for j := range g {
		out[j] = g[j] + l2*w[j]
	}
	out[len(g)] = rsum
	return loss / n
}

// applyLinGrad is the shared GLM update for the [dW..., dB] layout.
func applyLinGrad(w []float64, b *float64, g []float64, lr float64) {
	for j := range w {
		w[j] -= lr * g[j]
	}
	*b -= lr * g[len(w)]
}

// planGrad lets a wrapper model (one-vs-rest) thread one shared kernel
// plan through every per-class gradient it computes on the same batch, so
// a whole multi-class Grad costs a single decode-tree build.
type planGrad interface {
	gradPlan(x formats.CompressedMatrix, plan formats.KernelPlan, y, out []float64) float64
}

// gradOwnPlan is a GLM's whole Grad: build the batch's plan, run the
// gradient on it, release it.
func gradOwnPlan(m planGrad, x formats.CompressedMatrix, y, out []float64) float64 {
	plan := planFor(x)
	loss := m.gradPlan(x, plan, y, out)
	releasePlan(plan)
	return loss
}

// NumParams returns len(W)+1 (weights plus bias).
func (m *LinReg) NumParams() int { return len(m.W) + 1 }

// Grad writes the flat [dW..., dB] squared-loss gradient of Equation 3.
func (m *LinReg) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	return gradOwnPlan(m, x, y, out)
}

func (m *LinReg) gradPlan(x formats.CompressedMatrix, plan formats.KernelPlan, y, out []float64) float64 {
	return linGrad(x, plan, y, m.W, m.B, m.L2, m.Workers, out, func(z, yi float64) (float64, float64) {
		d := z - yi
		return 0.5 * d * d, d
	})
}

// ApplyGrad updates weights and bias from a Grad-layout gradient.
func (m *LinReg) ApplyGrad(g []float64, lr float64) { applyLinGrad(m.W, &m.B, g, lr) }

// NumParams returns len(W)+1 (weights plus bias).
func (m *LogReg) NumParams() int { return len(m.W) + 1 }

// Grad writes the flat [dW..., dB] logistic gradient (σ(Ah) − y)ᵀA.
func (m *LogReg) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	return gradOwnPlan(m, x, y, out)
}

func (m *LogReg) gradPlan(x formats.CompressedMatrix, plan formats.KernelPlan, y, out []float64) float64 {
	return linGrad(x, plan, y, m.W, m.B, m.L2, m.Workers, out, func(z, yi float64) (float64, float64) {
		p := sigmoid(z)
		pc := clampProb(p)
		return -(yi*math.Log(pc) + (1-yi)*math.Log(1-pc)), p - yi
	})
}

// ApplyGrad updates weights and bias from a Grad-layout gradient.
func (m *LogReg) ApplyGrad(g []float64, lr float64) { applyLinGrad(m.W, &m.B, g, lr) }

// NumParams returns len(W)+1 (weights plus bias).
func (m *SVM) NumParams() int { return len(m.W) + 1 }

// Grad writes the flat [dW..., dB] hinge subgradient: rows inside the
// margin contribute −y·x.
func (m *SVM) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	return gradOwnPlan(m, x, y, out)
}

func (m *SVM) gradPlan(x formats.CompressedMatrix, plan formats.KernelPlan, y, out []float64) float64 {
	return linGrad(x, plan, y, m.W, m.B, m.L2, m.Workers, out, func(z, yi float64) (float64, float64) {
		s := 2*yi - 1 // {0,1} -> {-1,+1}
		if margin := s * z; margin < 1 {
			return 1 - margin, -s
		}
		return 0, 0
	})
}

// ApplyGrad updates weights and bias from a Grad-layout gradient.
func (m *SVM) ApplyGrad(g []float64, lr float64) { applyLinGrad(m.W, &m.B, g, lr) }

// gradModels asserts every per-class model supports the gradient split;
// NewOneVsRest only ever builds LogReg/SVM ensembles, which do.
func (o *OneVsRest) gradModels() []GradModel {
	out := make([]GradModel, len(o.Models))
	for c, m := range o.Models {
		gm, ok := m.(GradModel)
		if !ok {
			panic(fmt.Sprintf("ml: one-vs-rest class %d model %T does not implement GradModel", c, m))
		}
		out[c] = gm
	}
	return out
}

// NumParams sums the per-class parameter counts.
func (o *OneVsRest) NumParams() int {
	total := 0
	for _, gm := range o.gradModels() {
		total += gm.NumParams()
	}
	return total
}

// Grad concatenates the per-class gradients on rest-relabelled copies of
// the batch, returning the mean per-class loss. One kernel plan is shared
// across every per-class gradient, so the whole multi-class Grad builds
// the batch's decode tree once instead of once per class and direction.
func (o *OneVsRest) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	plan := planFor(x)
	yc := make([]float64, len(y))
	var total float64
	off := 0
	for c, gm := range o.gradModels() {
		for i, yi := range y {
			if int(yi) == c {
				yc[i] = 1
			} else {
				yc[i] = 0
			}
		}
		np := gm.NumParams()
		if pg, ok := gm.(planGrad); ok {
			total += pg.gradPlan(x, plan, yc, out[off:off+np])
		} else {
			total += gm.Grad(x, yc, out[off:off+np])
		}
		off += np
	}
	releasePlan(plan)
	return total / float64(len(o.Models))
}

// ApplyGrad applies each per-class slice of the concatenated gradient.
func (o *OneVsRest) ApplyGrad(g []float64, lr float64) {
	off := 0
	for _, gm := range o.gradModels() {
		np := gm.NumParams()
		gm.ApplyGrad(g[off:off+np], lr)
		off += np
	}
}

// NumParams sums every layer's weight matrix and bias vector.
func (n *NN) NumParams() int {
	total := 0
	for l := range n.W {
		total += n.Sizes[l]*n.Sizes[l+1] + n.Sizes[l+1]
	}
	return total
}

// Grad runs one forward/backward pass without updating, writing the flat
// gradient laid out layer by layer as [dW0..., dB0..., dW1..., dB1...,
// ...] (dW row-major). The backward pass reads each W[l] before ApplyGrad
// would mutate it, so Grad-then-ApplyGrad reproduces Step exactly. One
// kernel plan spans the input layer's forward A·M and backward M·A, so
// the step builds the batch's decode tree once.
func (n *NN) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	if x.Rows() != len(y) {
		panic(fmt.Sprintf("ml: NN batch %d rows but %d labels", x.Rows(), len(y)))
	}
	plan := planFor(x)
	acts := n.forward(x, plan)
	outAct := acts[len(acts)-1]
	target := n.oneHot(y)
	loss := n.crossEntropy(outAct, target)

	// Layer l's slice of out starts after all earlier layers.
	offs := make([]int, len(n.W))
	off := 0
	for l := range n.W {
		offs[l] = off
		off += n.Sizes[l]*n.Sizes[l+1] + n.Sizes[l+1]
	}

	nRows := float64(x.Rows())
	// For sigmoid+CE and softmax+CE alike: delta_out = (P − T)/n.
	delta := outAct.Sub(target)
	delta.ScaleInPlace(1 / nRows)

	for l := len(n.W) - 1; l >= 0; l-- {
		var dW *matrix.Dense
		if l == 0 {
			// dW0 = Aᵀ·delta = (deltaᵀ·A)ᵀ — M·A on the compressed input.
			dW = matMul(x, plan, delta.Transpose(), n.Workers).Transpose()
		} else {
			dW = acts[l-1].Transpose().MulMat(delta)
		}
		db := columnSums(delta)
		if l > 0 {
			back := delta.MulMat(n.W[l].Transpose())
			h := acts[l-1]
			for i := 0; i < back.Rows(); i++ {
				br := back.Row(i)
				hr := h.Row(i)
				for j := range br {
					br[j] *= hr[j] * (1 - hr[j]) // sigmoid'
				}
			}
			delta = back
		}
		wlen := n.Sizes[l] * n.Sizes[l+1]
		copy(out[offs[l]:offs[l]+wlen], dW.Data())
		copy(out[offs[l]+wlen:offs[l]+wlen+len(db)], db)
	}
	releasePlan(plan)
	return loss
}

// ApplyGrad subtracts lr·g from every layer's weights and biases.
func (n *NN) ApplyGrad(g []float64, lr float64) {
	off := 0
	for l := range n.W {
		wd := n.W[l].Data()
		for j := range wd {
			wd[j] -= lr * g[off+j]
		}
		off += len(wd)
		for j := range n.B[l] {
			n.B[l][j] -= lr * g[off+j]
		}
		off += len(n.B[l])
	}
}
