package ml

import (
	"fmt"

	"toc/internal/formats"
)

// OneVsRest performs multi-class classification with per-class binary
// models — the paper's §5.3 "standard one-versus-the-other technique" for
// LR and SVM. Training Mnist's 10 classes therefore runs 10× the matrix
// operations of a binary model, which is why CVI edges out TOC on Mnist1m
// in Table 6. Its flat parameter and gradient layout is the per-class
// [W..., B] vectors concatenated in class order.
type OneVsRest struct {
	Models []*Linear
}

// NewOneVsRest builds classes binary models with the given constructor.
func NewOneVsRest(classes int, newModel func() *Linear) *OneVsRest {
	if classes < 2 {
		panic(fmt.Sprintf("ml: one-vs-rest needs >=2 classes, got %d", classes))
	}
	o := &OneVsRest{}
	for c := 0; c < classes; c++ {
		o.Models = append(o.Models, newModel())
	}
	return o
}

// SetKernelWorkers is a no-op that satisfies Model, like
// Linear.SetKernelWorkers: every per-class gradient is A·v + v·A.
func (o *OneVsRest) SetKernelWorkers(int) {}

// relabel fills yc with class c's rest-relabelled copy of y — 1 where
// the label is c, 0 elsewhere — and returns it.
func relabel(yc, y []float64, c int) []float64 {
	for i, yi := range y {
		if int(yi) == c {
			yc[i] = 1
		} else {
			yc[i] = 0
		}
	}
	return yc
}

// split hands f each per-class model with its slice of a vector in the
// concatenated layout.
func (o *OneVsRest) split(v []float64, f func(m *Linear, part []float64)) {
	off := 0
	for _, m := range o.Models {
		np := m.NumParams()
		f(m, v[off:off+np])
		off += np
	}
}

// Loss returns the mean per-class binary loss.
func (o *OneVsRest) Loss(x formats.CompressedMatrix, y []float64) float64 {
	yc := make([]float64, len(y))
	var total float64
	for c, m := range o.Models {
		total += m.Loss(x, relabel(yc, y, c))
	}
	return total / float64(len(o.Models))
}

// Predict returns the class whose model scores highest per row.
func (o *OneVsRest) Predict(x formats.CompressedMatrix) []float64 {
	scores := make([][]float64, len(o.Models))
	for c, m := range o.Models {
		scores[c] = m.Score(x)
	}
	pred := make([]float64, x.Rows())
	for i := range pred {
		best, bestV := 0, scores[0][i]
		for c := 1; c < len(scores); c++ {
			if scores[c][i] > bestV {
				best, bestV = c, scores[c][i]
			}
		}
		pred[i] = float64(best)
	}
	return pred
}

// NumParams sums the per-class parameter counts.
func (o *OneVsRest) NumParams() int {
	total := 0
	for _, m := range o.Models {
		total += m.NumParams()
	}
	return total
}

// Grad concatenates the per-class gradients on rest-relabelled copies of
// the batch, returning the mean per-class loss. One kernel plan is shared
// across every per-class gradient, so the whole multi-class Grad builds
// the batch's decode tree once instead of once per class and direction.
func (o *OneVsRest) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	plan := x.NewKernelPlan()
	yc := make([]float64, len(y))
	var total float64
	off := 0
	for c, m := range o.Models {
		np := m.NumParams()
		total += m.gradPlan(x, plan, relabel(yc, y, c), out[off:off+np])
		off += np
	}
	plan.Release()
	return total / float64(len(o.Models))
}

// ApplyGrad applies each per-class slice of the concatenated gradient.
func (o *OneVsRest) ApplyGrad(g []float64, lr float64) {
	o.split(g, func(m *Linear, part []float64) { m.ApplyGrad(part, lr) })
}

// Params concatenates the per-class [W..., B] vectors in class order.
// It runs under the engine loop's lock on every gradient, so
// it must not allocate.
func (o *OneVsRest) Params(out []float64) {
	checkParamsLen("OneVsRest", len(out), o.NumParams())
	o.split(out, (*Linear).Params)
}

// SetParams restores every per-class slice of the concatenated vector.
func (o *OneVsRest) SetParams(p []float64) {
	checkParamsLen("OneVsRest", len(p), o.NumParams())
	o.split(p, (*Linear).SetParams)
}

// Clone clones every per-class model.
func (o *OneVsRest) Clone() Model {
	c := &OneVsRest{Models: make([]*Linear, len(o.Models))}
	for i, m := range o.Models {
		c.Models[i] = m.clone()
	}
	return c
}
