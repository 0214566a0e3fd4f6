package ml

import (
	"toc/internal/formats"
	"toc/internal/matrix"
)

// Kernel dispatch: every model reaches the compressed mini-batch through
// the four helpers below. When the encoding plans its batches
// (formats.ParallelOps — TOC), the caller builds one plan per (batch,
// call) with planFor and every multiplication of that call runs on it:
// the 2-3 multiplications a gradient makes on one batch (the A·v/A·M
// forward and the v·A/M·A aggregation) share a single decode-tree build
// instead of paying the O(|I|+|D|) rebuild per operation, into the
// caller's buffer; the two matrix kernels run at the model's worker
// count, the two vector kernels are sequential. Whoever called planFor
// releases the plan on return, which recycles the tree's memory into the
// next step's plan; core.TreeBuilds is the white-box counter proving the
// amortization. Every other encoding gets a nil plan and its own
// sequential method. The plan's kernels are bitwise identical to those
// methods at every worker count, so neither the plan nor the worker knob
// changes anything but wall-clock — a trajectory computed at Workers=8
// matches Workers=1 exactly.

// planFor returns a per-batch kernel plan when the encoding supports one,
// nil otherwise (the helpers then use the encoding's own methods).
func planFor(x formats.CompressedMatrix) formats.KernelPlan {
	if p, ok := x.(formats.ParallelOps); ok {
		return p.NewKernelPlan()
	}
	return nil
}

// releasePlan ends the life of a plan planFor returned (nil is fine).
// Only the caller of planFor calls it, after its last kernel.
func releasePlan(plan formats.KernelPlan) {
	if plan != nil {
		plan.Release()
	}
}

// mulVec computes A·v: into dst on the plan, or — without a plan — with
// the encoding's allocating method. Callers treat the return value as the
// result either way. The other three helpers follow the same shape. A
// nil dst allocates in the two vector ones; the two matrix ones size
// their dst for the product first (Dense.Reshape), so a pooled matrix of
// whatever earlier shape serves.
func mulVec(dst []float64, x formats.CompressedMatrix, plan formats.KernelPlan, v []float64) []float64 {
	if plan != nil {
		return plan.MulVecInto(dst, v, 1)
	}
	return x.MulVec(v)
}

func vecMul(dst []float64, x formats.CompressedMatrix, plan formats.KernelPlan, v []float64) []float64 {
	if plan != nil {
		return plan.VecMulInto(dst, v, 1)
	}
	return x.VecMul(v)
}

func mulMat(dst *matrix.Dense, x formats.CompressedMatrix, plan formats.KernelPlan, m *matrix.Dense, workers int) *matrix.Dense {
	if plan != nil {
		return plan.MulMatInto(dst.Reshape(x.Rows(), m.Cols()), m, workers)
	}
	return x.MulMat(m)
}

func matMul(dst *matrix.Dense, x formats.CompressedMatrix, plan formats.KernelPlan, m *matrix.Dense, workers int) *matrix.Dense {
	if plan != nil {
		return plan.MatMulInto(dst.Reshape(m.Rows(), x.Cols()), m, workers)
	}
	return x.MatMul(m)
}
