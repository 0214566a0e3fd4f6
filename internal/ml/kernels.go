package ml

import (
	"toc/internal/formats"
	"toc/internal/matrix"
)

// Kernel dispatch: every model reaches the compressed mini-batch through
// these four helpers, which route a Table 1 multiplication to the
// encoding's parallel kernel when one exists (formats.ParallelOps) and
// the model's worker knob asks for more than one goroutine. The parallel
// kernels are bitwise identical to the sequential ones, so the knob
// changes wall-clock only — a trajectory computed at Workers=8 matches
// Workers=1 exactly.
//
// When the encoding supports per-batch kernel plans, each helper also
// takes the step's shared plan: the 2-3 multiplications a gradient makes
// on one batch (the A·v/A·M forward and the v·A/M·A aggregation) then
// share a single decode-tree build instead of paying the O(|I|+|D|)
// rebuild per operation. planFor builds one per (batch, call) and the
// Grad that asked for it releases it on return, which recycles the
// tree's memory into the next step's plan; core.TreeBuilds is the
// white-box counter proving the amortization.

// KernelParallel is implemented by models whose compressed-kernel calls
// can use multiple goroutines per gradient. Every model NewModel returns
// implements it.
type KernelParallel interface {
	// SetKernelWorkers sets the goroutine count each kernel call may use;
	// 0 or 1 keeps the kernels sequential.
	SetKernelWorkers(workers int)
}

// planFor returns a shared per-batch kernel plan when the encoding
// supports one, nil otherwise (the dispatchers then fall back to the
// per-op interface methods).
func planFor(x formats.CompressedMatrix) formats.KernelPlan {
	if p, ok := x.(formats.ParallelOps); ok {
		return p.NewKernelPlan()
	}
	return nil
}

// releasePlan ends the life of a plan planFor returned (nil is fine).
// Only the Grad that built the plan calls it, after its last kernel.
func releasePlan(plan formats.KernelPlan) {
	if plan != nil {
		plan.Release()
	}
}

// mulVecInto is mulVec writing into dst when the plan supports
// caller-owned destinations (formats.KernelPlanInto); otherwise it falls
// back to the allocating path and returns the fresh slice. Callers treat
// the return value as the result either way.
func mulVecInto(dst []float64, x formats.CompressedMatrix, plan formats.KernelPlan, v []float64, workers int) []float64 {
	if pi, ok := plan.(formats.KernelPlanInto); ok {
		return pi.MulVecInto(dst, v, workers)
	}
	return mulVec(x, plan, v, workers)
}

// vecMulInto is vecMul writing into dst when the plan supports it.
func vecMulInto(dst []float64, x formats.CompressedMatrix, plan formats.KernelPlan, v []float64, workers int) []float64 {
	if pi, ok := plan.(formats.KernelPlanInto); ok {
		return pi.VecMulInto(dst, v, workers)
	}
	return vecMul(x, plan, v, workers)
}

func mulVec(x formats.CompressedMatrix, plan formats.KernelPlan, v []float64, workers int) []float64 {
	if plan != nil {
		return plan.MulVec(v, workers)
	}
	if workers > 1 {
		if p, ok := x.(formats.ParallelOps); ok {
			return p.MulVecParallel(v, workers)
		}
	}
	return x.MulVec(v)
}

func vecMul(x formats.CompressedMatrix, plan formats.KernelPlan, v []float64, workers int) []float64 {
	if plan != nil {
		return plan.VecMul(v, workers)
	}
	if workers > 1 {
		if p, ok := x.(formats.ParallelOps); ok {
			return p.VecMulParallel(v, workers)
		}
	}
	return x.VecMul(v)
}

func mulMat(x formats.CompressedMatrix, plan formats.KernelPlan, m *matrix.Dense, workers int) *matrix.Dense {
	if plan != nil {
		return plan.MulMat(m, workers)
	}
	if workers > 1 {
		if p, ok := x.(formats.ParallelOps); ok {
			return p.MulMatParallel(m, workers)
		}
	}
	return x.MulMat(m)
}

func matMul(x formats.CompressedMatrix, plan formats.KernelPlan, m *matrix.Dense, workers int) *matrix.Dense {
	if plan != nil {
		return plan.MatMul(m, workers)
	}
	if workers > 1 {
		if p, ok := x.(formats.ParallelOps); ok {
			return p.MatMulParallel(m, workers)
		}
	}
	return x.MatMul(m)
}
