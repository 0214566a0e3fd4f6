package ml

import (
	"math"

	"toc/internal/formats"
)

// The three generalized linear models. Each Step is two compressed ops —
// a right multiplication A·w to score the batch and a left multiplication
// r·A to aggregate gradients — exactly the Table 1 usage.

// scores computes A·w on a plan of its own: the single multiplication of
// a Loss, Score or Predict call, at the model's worker count.
func scores(x formats.CompressedMatrix, w []float64, workers int) []float64 {
	plan := planFor(x)
	defer releasePlan(plan)
	return mulVec(nil, x, plan, w, workers)
}

// LinReg is linear regression with mean squared loss
// (§2.1.4: l(h,z) = ½(y − xᵀh)²).
type LinReg struct {
	W  []float64 // weight vector, one per feature
	B  float64   // bias
	L2 float64   // optional ridge penalty coefficient
	// Workers is the goroutine count each compressed-kernel call may use
	// (0 or 1 = sequential). Parallel kernels are bitwise identical to
	// sequential ones, so it changes wall-clock only.
	Workers int

	step []float64 // cached Step gradient buffer
}

// SetKernelWorkers sets the per-kernel goroutine count (KernelParallel).
func (m *LinReg) SetKernelWorkers(workers int) { m.Workers = workers }

// NewLinReg creates a zero-initialized linear regression model.
func NewLinReg(dims int) *LinReg { return &LinReg{W: make([]float64, dims)} }

// Step implements Equation 3: grad = ((Ah − Y)ᵀA)ᵀ, averaged over the
// batch. It is Grad followed by ApplyGrad, so the parallel engine's
// split-step training walks the same trajectory.
func (m *LinReg) Step(x formats.CompressedMatrix, y []float64, lr float64) float64 {
	g := stepBuf(&m.step, m.NumParams())
	loss := m.Grad(x, y, g)
	m.ApplyGrad(g, lr)
	return loss
}

// Loss evaluates mean squared loss.
func (m *LinReg) Loss(x formats.CompressedMatrix, y []float64) float64 {
	p := scores(x, m.W, m.Workers)
	var loss float64
	for i := range p {
		d := p[i] + m.B - y[i]
		loss += 0.5 * d * d
	}
	return loss / float64(len(p))
}

// Predict returns the real-valued scores A·w + b.
func (m *LinReg) Predict(x formats.CompressedMatrix) []float64 {
	p := scores(x, m.W, m.Workers)
	for i := range p {
		p[i] += m.B
	}
	return p
}

// LogReg is binary logistic regression with logistic loss; labels are 0/1.
type LogReg struct {
	W  []float64
	B  float64
	L2 float64
	// Workers is the goroutine count each compressed-kernel call may use
	// (0 or 1 = sequential).
	Workers int

	step []float64 // cached Step gradient buffer
}

// SetKernelWorkers sets the per-kernel goroutine count (KernelParallel).
func (m *LogReg) SetKernelWorkers(workers int) { m.Workers = workers }

// NewLogReg creates a zero-initialized logistic regression model.
func NewLogReg(dims int) *LogReg { return &LogReg{W: make([]float64, dims)} }

// Step performs one MGD update with the logistic gradient (σ(Ah) − y)ᵀA.
func (m *LogReg) Step(x formats.CompressedMatrix, y []float64, lr float64) float64 {
	g := stepBuf(&m.step, m.NumParams())
	loss := m.Grad(x, y, g)
	m.ApplyGrad(g, lr)
	return loss
}

// Loss evaluates mean logistic loss.
func (m *LogReg) Loss(x formats.CompressedMatrix, y []float64) float64 {
	s := scores(x, m.W, m.Workers)
	var loss float64
	for i := range s {
		p := clampProb(sigmoid(s[i] + m.B))
		loss += -(y[i]*math.Log(p) + (1-y[i])*math.Log(1-p))
	}
	return loss / float64(len(s))
}

// Score returns the probability of class 1 per row (used by one-vs-rest).
func (m *LogReg) Score(x formats.CompressedMatrix) []float64 {
	s := scores(x, m.W, m.Workers)
	for i := range s {
		s[i] = sigmoid(s[i] + m.B)
	}
	return s
}

// Predict returns 0/1 labels at the 0.5 threshold.
func (m *LogReg) Predict(x formats.CompressedMatrix) []float64 {
	s := m.Score(x)
	for i := range s {
		if s[i] > 0.5 {
			s[i] = 1
		} else {
			s[i] = 0
		}
	}
	return s
}

// SVM is a linear support vector machine with hinge loss; labels are 0/1
// (mapped internally to ±1).
type SVM struct {
	W  []float64
	B  float64
	L2 float64
	// Workers is the goroutine count each compressed-kernel call may use
	// (0 or 1 = sequential).
	Workers int

	step []float64 // cached Step gradient buffer
}

// SetKernelWorkers sets the per-kernel goroutine count (KernelParallel).
func (m *SVM) SetKernelWorkers(workers int) { m.Workers = workers }

// NewSVM creates a zero-initialized linear SVM.
func NewSVM(dims int) *SVM { return &SVM{W: make([]float64, dims), L2: 1e-4} }

// Step performs one MGD update with the hinge subgradient: rows inside the
// margin contribute −y·x.
func (m *SVM) Step(x formats.CompressedMatrix, y []float64, lr float64) float64 {
	g := stepBuf(&m.step, m.NumParams())
	loss := m.Grad(x, y, g)
	m.ApplyGrad(g, lr)
	return loss
}

// Loss evaluates mean hinge loss.
func (m *SVM) Loss(x formats.CompressedMatrix, y []float64) float64 {
	s := scores(x, m.W, m.Workers)
	var loss float64
	for i := range s {
		yi := 2*y[i] - 1
		if margin := yi * (s[i] + m.B); margin < 1 {
			loss += 1 - margin
		}
	}
	return loss / float64(len(s))
}

// Score returns the signed margins per row (used by one-vs-rest).
func (m *SVM) Score(x formats.CompressedMatrix) []float64 {
	s := scores(x, m.W, m.Workers)
	for i := range s {
		s[i] += m.B
	}
	return s
}

// Predict returns 0/1 labels by margin sign.
func (m *SVM) Predict(x formats.CompressedMatrix) []float64 {
	s := m.Score(x)
	for i := range s {
		if s[i] > 0 {
			s[i] = 1
		} else {
			s[i] = 0
		}
	}
	return s
}
