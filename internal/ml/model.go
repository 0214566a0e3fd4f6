// Package ml implements the paper's §2.1 machine-learning training setting:
// empirical risk minimization with mini-batch stochastic gradient descent
// (MGD) for the four evaluated models — linear regression, logistic
// regression, linear SVM and a feed-forward neural network.
//
// Every gradient is expressed through the core matrix operations of Table
// 1 (A·v, v·A, A·M, M·A) applied to the *compressed* mini-batch, so any
// scheme implementing formats.CompressedMatrix trains identically; the
// schemes differ only in speed and size. MGD covers the whole gradient
// descent spectrum (§2.1.2): batch size 1 is SGD and batch size |S| is BGD.
package ml

import (
	"fmt"
	"math"

	"toc/internal/formats"
)

// Model is one empirical-risk model trained by mini-batch gradient
// steps, and the one contract every driver takes: the serial Train, the
// engine and the parameter server all run a step as Grad into a buffer
// followed by ApplyGrad of that buffer, so they walk the same trajectory.
// Linear, OneVsRest and NN — everything NewModel returns — implement it
// in full.
//
// Gradient computation is separate from the update so a data-parallel
// driver can evaluate a step's mini-batches concurrently against frozen
// parameters and merge the results deterministically before applying
// them once. The flat parameter vector can be exported, restored and
// cloned so a stale-bounded driver's workers compute on private clones
// refreshed from versioned snapshots, and gradient reads never race
// parameter writes. Params, SetParams, Grad and ApplyGrad share one flat
// layout, so a parameter vector round-trips bit for bit:
// SetParams(Params()) is the identity, and a clone's Grad on the same
// snapshot is bitwise identical to the original's.
type Model interface {
	// Loss evaluates the mean loss on a batch without updating.
	Loss(x formats.CompressedMatrix, y []float64) float64
	// Predict returns predicted labels: class ids for classifiers,
	// real-valued outputs for regression.
	Predict(x formats.CompressedMatrix) []float64

	// NumParams returns the length of the model's flat parameter vector.
	NumParams() int
	// Grad computes the averaged mini-batch gradient (Equation 2) of (x, y)
	// against the current parameters, overwriting out (length NumParams())
	// with the flat gradient including any regularization terms, and
	// returns the mini-batch loss. It must not mutate the model, so
	// concurrent Grad calls on one model are safe.
	//
	// Every call builds one kernel plan for its batch (x.NewKernelPlan)
	// and runs all its multiplications on it: the 2-3 a gradient makes
	// (the A·v/A·M forward and the v·A/M·A aggregation) share a single
	// decode-tree build instead of paying the O(|I|+|D|) rebuild per
	// operation, and write into the caller's buffers; the two matrix
	// kernels run at the kernel worker count, the two vector kernels
	// sequentially. Only the call that built a plan releases it, after
	// its last kernel, which recycles the tree's memory into the next
	// step's plan (core.TreeBuilds counts the builds). A plan's kernels
	// give the same bits at every worker count, so a trajectory computed
	// at 8 kernel workers matches 1 exactly.
	Grad(x formats.CompressedMatrix, y []float64, out []float64) float64
	// ApplyGrad performs the update params -= lr·g for a flat gradient g
	// laid out as Grad writes it.
	ApplyGrad(g []float64, lr float64)

	// Params writes the current flat parameter vector into out, which
	// must have length NumParams().
	Params(out []float64)
	// SetParams overwrites the parameters from a flat vector laid out as
	// Params writes it.
	SetParams(p []float64)
	// Clone returns an independent model with identical parameters and
	// hyperparameters; mutating either side never affects the other.
	Clone() Model

	// SetKernelWorkers sets the goroutine count each compressed matrix
	// kernel (A·M, M·A) may split its panel runs over; 0 or 1 keeps them
	// sequential, and the linear models, which run only the vector
	// kernels, ignore it. It changes wall-clock only, never a bit.
	SetKernelWorkers(workers int)
}

// GradModel, SnapshotModel and KernelParallel name the slices of the
// contract that used to be separate interfaces, bridged by runtime
// assertions that could not fail. They are Model; the names stay only
// because benchmark/ (frozen) spells its decorators with them.
type (
	GradModel      = Model
	SnapshotModel  = Model
	KernelParallel = Model
)

// checkParamsLen panics when a Params/SetParams buffer does not match the
// model's flat parameter count — silently truncating a snapshot would
// corrupt asynchronous training in ways that surface much later.
func checkParamsLen(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("ml: %s params buffer has %d elements, model has %d", name, got, want))
	}
}

func sigmoid(z float64) float64 {
	// Numerically stable on both tails.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// clampProb keeps probabilities away from 0/1 so cross-entropy stays finite.
func clampProb(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// crossEntropy is the binary cross-entropy −(y·log pc + (1−y)·log(1−pc))
// of a clamped probability pc against a label y, with one log for a 0/1
// label. For y = 1 the second term is 0·log(1−pc) = −0 — clamping keeps
// 1−pc below 1, so the log is negative — and x + (−0) = x, so the sum is
// exactly −log pc; for y = 0 it is exactly −log(1−pc) the same way. Any
// other label takes the two-log form.
func crossEntropy(y, pc float64) float64 {
	switch y {
	case 1:
		return -math.Log(pc)
	case 0:
		return -math.Log(1 - pc)
	}
	return -(y*math.Log(pc) + (1-y)*math.Log(1-pc))
}
