package ml

import (
	"math"
	"sync"

	"toc/internal/formats"
)

// Linear is the paper's generalized linear model (§2.1.4, Table 1):
// linear regression, logistic regression and the linear SVM are one
// computation — score the batch with A·w, turn each row's score into a
// residual, aggregate with r·A — that differs only in the per-row
// residual. NewLinReg, NewLogReg and NewSVM pick it.
type Linear struct {
	W  []float64 // weight vector, one per feature
	B  float64   // bias
	L2 float64   // optional ridge penalty coefficient

	glm *glm
}

// glm is everything that tells the three linear models apart.
type glm struct {
	// residual maps a row's score A·w+b and label to its loss
	// contribution and its residual numerator (∂loss/∂score).
	residual func(z, y float64) (loss, r float64)
	// link turns a row's score into the confidence Score reports.
	link func(z float64) float64
	// label turns a Score into the value Predict reports.
	label func(s float64) float64
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
			return -(y*math.Log(pc) + (1-y)*math.Log(1-pc)), p - y
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
		link: identity, label: above(0),
	}
)

// NewLinReg creates a zero-initialized linear regression model.
func NewLinReg(dims int) *Linear { return &Linear{W: make([]float64, dims), glm: squared} }

// NewLogReg creates a zero-initialized binary logistic regression model.
func NewLogReg(dims int) *Linear { return &Linear{W: make([]float64, dims), glm: logistic} }

// NewSVM creates a zero-initialized linear support vector machine.
func NewSVM(dims int) *Linear { return &Linear{W: make([]float64, dims), L2: 1e-4, glm: hinge} }

// SetKernelWorkers is a no-op that satisfies Model: a GLM gradient is
// A·v + v·A, the two vector kernels, which always run on the caller's
// goroutine — there is nothing for a second goroutine to do.
func (m *Linear) SetKernelWorkers(int) {}

// scores computes A·w on a plan of its own: the single multiplication of
// a Loss, Score or Predict call.
func (m *Linear) scores(x formats.CompressedMatrix) []float64 {
	plan := x.NewKernelPlan()
	defer plan.Release()
	return plan.MulVecInto(nil, m.W, 1)
}

// Loss evaluates the mean loss with the residual function Grad uses, so
// it is bitwise the loss a Grad on the same batch returns.
func (m *Linear) Loss(x formats.CompressedMatrix, y []float64) float64 {
	s := m.scores(x)
	var loss float64
	for i := range s {
		li, _ := m.glm.residual(s[i]+m.B, y[i])
		loss += li
	}
	return loss / float64(len(s))
}

// Score returns the linked per-row scores one-vs-rest compares: the
// class-1 probability for logistic regression, the signed margin for
// the SVM, A·w + b for linear regression.
func (m *Linear) Score(x formats.CompressedMatrix) []float64 {
	s := m.scores(x)
	for i := range s {
		s[i] = m.glm.link(s[i] + m.B)
	}
	return s
}

// Predict returns 0/1 labels for the classifiers and the real-valued
// scores for linear regression.
func (m *Linear) Predict(x formats.CompressedMatrix) []float64 {
	s := m.Score(x)
	for i := range s {
		s[i] = m.glm.label(s[i])
	}
	return s
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

// NumParams returns len(W)+1 (weights plus bias).
func (m *Linear) NumParams() int { return len(m.W) + 1 }

// Grad writes the flat [dW..., dB] gradient: build the batch's plan, run
// the gradient on it, release it.
func (m *Linear) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	plan := x.NewKernelPlan()
	loss := m.gradPlan(x, plan, y, out)
	plan.Release()
	return loss
}

// gradPlan runs the GLM gradient shape — score the batch with A·w, turn
// per-row residuals into r, aggregate with r·A — on the caller's kernel
// plan, writing the flat [dW..., dB] gradient into out and returning the
// mean loss. Both multiplications share the plan (one decode-tree build
// for the forward and backward passes, and — through OneVsRest — for
// every class); the gradient is bitwise independent of the plan.
//
// The whole gradient runs allocation-free: the score and
// residual vectors come from a pool and the v·A aggregation lands
// directly in out's weight slice (pinned by TestLinGradAllocs).
func (m *Linear) gradPlan(x formats.CompressedMatrix, plan formats.KernelPlan, y, out []float64) float64 {
	w, bias, l2, residual := m.W, m.B, m.L2, m.glm.residual
	n := float64(x.Rows())
	sc := linScratchPool.Get().(*linScratch)
	defer linScratchPool.Put(sc)
	s := plan.MulVecInto(sc.vec(&sc.s, x.Rows()), w, 1)
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

// ApplyGrad updates weights and bias from a Grad-layout gradient.
func (m *Linear) ApplyGrad(g []float64, lr float64) {
	w := m.W
	for j := range w {
		w[j] -= lr * g[j]
	}
	m.B -= lr * g[len(w)]
}

// Params writes the flat [W..., B] vector.
func (m *Linear) Params(out []float64) {
	checkParamsLen("Linear", len(out), m.NumParams())
	copy(out, m.W)
	out[len(m.W)] = m.B
}

// SetParams restores the flat [W..., B] vector.
func (m *Linear) SetParams(p []float64) {
	checkParamsLen("Linear", len(p), m.NumParams())
	copy(m.W, p)
	m.B = p[len(m.W)]
}

// Clone returns an independent copy with the same weights and knobs.
func (m *Linear) Clone() Model { return m.clone() }

func (m *Linear) clone() *Linear {
	c := *m
	c.W = append([]float64(nil), m.W...)
	return &c
}
