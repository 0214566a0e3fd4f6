package ml

import (
	"fmt"
	"math"
	"time"

	"toc/internal/formats"
)

// Learning-rate schedules and momentum for the MGD driver. The paper
// trains with a constant rate (its §5.3 setup); these are the standard
// MGD refinements its §2.1.2 background points at, provided as library
// extensions and exercised by the ablation benches.

// Schedule maps a 0-based epoch to a learning rate.
type Schedule func(epoch int) float64

// ConstantLR returns the paper's fixed learning rate.
func ConstantLR(lr float64) Schedule {
	return func(int) float64 { return lr }
}

// StepDecayLR halves the rate every `every` epochs.
func StepDecayLR(lr float64, every int) Schedule {
	if every <= 0 {
		every = 1
	}
	return func(epoch int) float64 {
		return lr * math.Pow(0.5, float64(epoch/every))
	}
}

// InverseDecayLR returns lr / (1 + k·epoch), the classical Robbins-Monro
// style decay.
func InverseDecayLR(lr, k float64) Schedule {
	return func(epoch int) float64 { return lr / (1 + k*float64(epoch)) }
}

// TrainSchedule is the serial MGD driver: Train with a per-epoch
// learning-rate schedule.
//
//toc:timing
func TrainSchedule(m Model, src BatchSource, epochs int, sched Schedule, cb EpochCallback) *TrainResult {
	res := &TrainResult{}
	start := time.Now()
	n := src.NumBatches()
	for e := 0; e < epochs; e++ {
		epochStart := time.Now()
		lr := sched(e)
		var loss float64
		for i := 0; i < n; i++ {
			x, y := src.Batch(i)
			loss += m.Step(x, y, lr)
		}
		if n > 0 {
			loss /= float64(n)
		}
		res.EpochLoss = append(res.EpochLoss, loss)
		res.EpochTime = append(res.EpochTime, time.Since(epochStart))
		if cb != nil {
			cb(e, time.Since(start), loss)
		}
	}
	res.Total = time.Since(start)
	return res
}

// Momentum wraps a linear model's updates with classical (heavy-ball)
// momentum: velocity = mu·velocity − lr·grad; w += velocity. It observes
// the wrapped model's parameters before and after each Step to recover
// the applied update, so it composes with any of the linear models
// without changing their gradient code.
type Momentum struct {
	Model Model
	Mu    float64

	velocity []float64
}

// NewMomentum wraps model with momentum coefficient mu (typically 0.9).
func NewMomentum(model Model, mu float64) *Momentum {
	return &Momentum{Model: model, Mu: mu}
}

// params returns the wrapped model's parameter slice (weights ++ bias) as
// views that allow in-place modification, or nil if unsupported.
func (m *Momentum) params() ([]float64, *float64) {
	switch v := m.Model.(type) {
	case *LinReg:
		return v.W, &v.B
	case *LogReg:
		return v.W, &v.B
	case *SVM:
		return v.W, &v.B
	default:
		return nil, nil
	}
}

// Step applies one momentum-accelerated MGD update: it runs the wrapped
// model's plain step, recovers the applied update −lr·grad from the
// parameter delta, and replaces it with the velocity-smoothed update.
func (m *Momentum) Step(x formats.CompressedMatrix, y []float64, lr float64) float64 {
	w, b := m.params()
	if w == nil {
		// Unsupported model (e.g. NN): fall back to the plain step.
		return m.Model.Step(x, y, lr)
	}
	if m.velocity == nil {
		m.velocity = make([]float64, len(w)+1)
	}
	if len(m.velocity) != len(w)+1 {
		panic(fmt.Sprintf("ml: momentum state %d does not match %d params", len(m.velocity), len(w)+1))
	}
	before := append([]float64(nil), w...)
	bBefore := *b
	loss := m.Model.Step(x, y, lr)
	for i := range w {
		update := w[i] - before[i] // −lr·grad_i
		m.velocity[i] = m.Mu*m.velocity[i] + update
		w[i] = before[i] + m.velocity[i]
	}
	vb := &m.velocity[len(w)]
	*vb = m.Mu*(*vb) + (*b - bBefore)
	*b = bBefore + *vb
	return loss
}

// Loss delegates to the wrapped model.
func (m *Momentum) Loss(x formats.CompressedMatrix, y []float64) float64 {
	return m.Model.Loss(x, y)
}

// Predict delegates to the wrapped model.
func (m *Momentum) Predict(x formats.CompressedMatrix) []float64 {
	return m.Model.Predict(x)
}
