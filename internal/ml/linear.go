package ml

import (
	"sync"

	"toc/internal/formats"
)

// Linear is the paper's generalized linear model (§2.1.4, Table 1):
// linear regression, logistic regression and the linear SVM are one
// computation — score the batch with A·w, turn each row's score into a
// residual, aggregate with r·A — that differs only in the per-row
// residual. NewModel picks it by the paper's short name.
//
// A Linear has K output columns. Linear regression and the binary
// classifiers have one. LR and SVM over K > 2 classes use the paper's
// §5.3 "standard one-versus-the-other technique": K binary models, class
// c's trained on labels that read 1 for class c and 0 for the rest.
// Mnist's 10 classes therefore cost 10× the matrix operations of a
// binary model, which is why CVI edges out TOC on Mnist1m in Table 6.
// Here the K columns are one model whose gradient runs each class's A·v
// and v·A on one shared kernel plan, so a step builds the batch's decode
// tree once, not 2K times.
type Linear struct {
	// P is the flat parameter vector: each column's weights followed by
	// its bias, [W_0..., B_0, W_1..., B_1, …] in class order.
	P  []float64
	K  int     // output columns: 1, or the class count of a one-vs-rest classifier
	L2 float64 // optional ridge penalty coefficient

	glm *glm
}

// glm is everything that tells the three linear models apart.
type glm struct {
	// residual maps a row's score A·w+b and label to its loss
	// contribution and its residual numerator (∂loss/∂score).
	residual func(z, y float64) (loss, r float64)
	// link turns a row's score into the confidence Predict compares.
	link func(z float64) float64
	// label turns a binary linked score into the value Predict reports.
	label func(s float64) float64
	// l2 is the model's default ridge coefficient.
	l2 float64
}

func identity(z float64) float64 { return z }

// above returns the 0/1 label rule "1 when the score exceeds cut".
func above(cut float64) func(float64) float64 {
	return func(s float64) float64 {
		if s > cut {
			return 1
		}
		return 0
	}
}

var (
	// squared is mean squared loss, l(h,z) = ½(y − xᵀh)² (Equation 3:
	// grad = ((Ah − Y)ᵀA)ᵀ); predictions are the real-valued scores.
	squared = &glm{
		residual: func(z, y float64) (float64, float64) {
			d := z - y
			return 0.5 * d * d, d
		},
		link: identity, label: identity,
	}
	// logistic is logistic loss on 0/1 labels, gradient (σ(Ah) − y)ᵀA;
	// the score is the class-1 probability, cut at 0.5.
	logistic = &glm{
		residual: func(z, y float64) (float64, float64) {
			p := sigmoid(z)
			pc := clampProb(p)
			return crossEntropy(y, pc), p - y
		},
		link: sigmoid, label: above(0.5),
	}
	// hinge is hinge loss on 0/1 labels mapped to ±1: rows inside the
	// margin contribute −y·x; the score is the signed margin, cut at 0.
	hinge = &glm{
		residual: func(z, y float64) (float64, float64) {
			s := 2*y - 1 // {0,1} -> {-1,+1}
			if margin := s * z; margin < 1 {
				return 1 - margin, -s
			}
			return 0, 0
		},
		link: identity, label: above(0), l2: 1e-4,
	}
)

// newLinear creates a zero-initialized GLM for classes label values:
// one output column for a regression or a binary classifier, one per
// class for a one-vs-rest classifier over classes > 2.
func newLinear(g *glm, dims, classes int) *Linear {
	k := 1
	if classes > 2 {
		k = classes
	}
	return &Linear{P: make([]float64, k*(dims+1)), K: k, L2: g.l2, glm: g}
}

// NewLinReg creates a zero-initialized linear regression model.
func NewLinReg(dims int) *Linear { return newLinear(squared, dims, 1) }

// NewLogReg creates a zero-initialized binary logistic regression model.
func NewLogReg(dims int) *Linear { return newLinear(logistic, dims, 2) }

// SetKernelWorkers is a no-op that satisfies Model: a GLM gradient is
// A·v + v·A per output column, the two vector kernels, which always run
// on the caller's goroutine — there is nothing for a second goroutine
// to do.
func (m *Linear) SetKernelWorkers(int) {}

// class returns output column c's slice of a flat parameter or gradient
// vector v: its weights, then its bias.
func (m *Linear) class(v []float64, c int) []float64 {
	d := len(m.P) / m.K
	return v[c*d : (c+1)*d]
}

// label is a row's label as output column c of k sees it: the label
// itself for a single column, one-vs-rest's 1 for class c and 0 for the
// rest.
func label(y float64, c, k int) float64 {
	if k == 1 {
		return y
	}
	if int(y) == c {
		return 1
	}
	return 0
}

// scores computes the K columns of scores A·w_c + b_c, column c at
// s[c·rows:(c+1)·rows], on a plan of its own: the multiplications of a
// Loss or Predict call.
func (m *Linear) scores(x formats.CompressedMatrix) []float64 {
	plan := x.NewKernelPlan()
	defer plan.Release()
	rows := x.Rows()
	s := make([]float64, m.K*rows)
	for c := 0; c < m.K; c++ {
		p := m.class(m.P, c)
		sc := plan.MulVecInto(s[c*rows:(c+1)*rows], p[:len(p)-1], 1)
		for i := range sc {
			sc[i] += p[len(p)-1]
		}
	}
	return s
}

// Loss evaluates the mean over output columns of each column's mean
// loss, with the residual function Grad uses, so it is bitwise the loss
// a Grad on the same batch returns. Each one-vs-rest column steps on its
// own class's loss, not on that mean, so a K-column Grad is K·∇Loss.
func (m *Linear) Loss(x formats.CompressedMatrix, y []float64) float64 {
	s, n := m.scores(x), len(y)
	var total float64
	for c := 0; c < m.K; c++ {
		var loss float64
		for i, yi := range y {
			li, _ := m.glm.residual(s[c*n+i], label(yi, c, m.K))
			loss += li
		}
		total += loss / float64(n)
	}
	return total / float64(m.K)
}

// Predict returns 0/1 labels for the binary classifiers, the real-valued
// scores for linear regression, and for one-vs-rest the class whose
// linked score is highest per row (the lowest such class on a tie). A
// linked score is the class-1 (or class-c) probability for logistic
// regression, the signed margin for the SVM, A·w + b for linear
// regression.
func (m *Linear) Predict(x formats.CompressedMatrix) []float64 {
	s, k := m.scores(x), m.K
	for i := range s {
		s[i] = m.glm.link(s[i])
	}
	if k == 1 {
		for i := range s {
			s[i] = m.glm.label(s[i])
		}
		return s
	}
	pred := make([]float64, len(s)/k)
	for i := range pred {
		best := 0
		for c := 1; c < k; c++ {
			if s[c*len(pred)+i] > s[best*len(pred)+i] {
				best = c
			}
		}
		pred[i] = float64(best)
	}
	return pred
}

// linScratch holds the two per-call row vectors of a gradient (the A·w
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

// NumParams returns K·(dims+1): every column's weights plus its bias.
func (m *Linear) NumParams() int { return len(m.P) }

// Grad writes the flat gradient, laid out as P, and returns the mean
// over columns of each column's loss: build the batch's plan, run every
// column's gradient on it in class order, release it.
func (m *Linear) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	plan := x.NewKernelPlan()
	var total float64
	for c := 0; c < m.K; c++ {
		total += m.gradPlan(x, plan, c, y, m.class(out, c))
	}
	plan.Release()
	return total / float64(m.K)
}

// gradPlan runs output column c's GLM gradient — score the batch with
// A·w, turn per-row residuals into r, aggregate with r·A — on the
// caller's kernel plan, writing the column's flat [dW..., dB] gradient
// into out and returning its mean loss. Both multiplications share the
// plan (one decode-tree build for the forward and backward passes of
// every column); the gradient is bitwise independent of the plan.
//
// The whole gradient runs allocation-free: the score and
// residual vectors come from a pool, the labels column c sees are made
// row by row, and the v·A aggregation lands directly in out's weight
// slice (pinned by TestLinGradAllocs).
func (m *Linear) gradPlan(x formats.CompressedMatrix, plan formats.KernelPlan, c int, y, out []float64) float64 {
	p := m.class(m.P, c)
	w, bias, l2, residual, k := p[:len(p)-1], p[len(p)-1], m.L2, m.glm.residual, m.K
	n := float64(x.Rows())
	sc := linScratchPool.Get().(*linScratch)
	defer linScratchPool.Put(sc)
	s := plan.MulVecInto(sc.vec(&sc.s, x.Rows()), w, 1)
	var loss, rsum float64
	r := sc.vec(&sc.r, len(s))
	for i := range s {
		li, ri := residual(s[i]+bias, label(y[i], c, k))
		loss += li
		rv := 0.0
		if ri != 0 {
			rv = ri / n
			rsum += rv
		}
		r[i] = rv
	}
	// g aliases out's weight slice, so the l2 fold below reads each g[j]
	// before overwriting that same element — identical arithmetic to
	// folding from a fresh vector.
	g := plan.VecMulInto(out[:len(w):len(w)], r, 1)
	for j := range g {
		out[j] = g[j] + l2*w[j]
	}
	out[len(g)] = rsum
	return loss / n
}

// ApplyGrad updates every weight and bias from a Grad-layout gradient.
func (m *Linear) ApplyGrad(g []float64, lr float64) {
	p := m.P
	g = g[:len(p)]
	for j := range p {
		p[j] -= lr * g[j]
	}
}

// Params writes the flat parameter vector P.
func (m *Linear) Params(out []float64) {
	checkParamsLen("Linear", len(out), m.NumParams())
	copy(out, m.P)
}

// SetParams restores the flat parameter vector P.
func (m *Linear) SetParams(p []float64) {
	checkParamsLen("Linear", len(p), m.NumParams())
	copy(m.P, p)
}

// Clone returns an independent copy with the same parameters and knobs.
func (m *Linear) Clone() Model {
	c := *m
	c.P = append([]float64(nil), m.P...)
	return &c
}
