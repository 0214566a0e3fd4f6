package core

import (
	"fmt"
	"sync"

	"toc/internal/matrix"
)

// KernelPlan holds the decode tree C' of one Batch so the 2-3 kernel
// calls a gradient step makes on the same mini-batch — the A·v or A·M
// forward pass plus the v·A or M·A gradient aggregation — share a single
// build instead of paying it per operation. The paper's cost model
// charges every kernel an O(|I|+|D|) rebuild of C'; a plan pays that
// charge once per step, and only for the nodes D references
// (O(|I|+|live|), decodetree.go), without changing any result.
//
// The plan's four Into methods are the one implementation of the Table 1
// multiplications. The matrix kernels A·M and M·A hand runs of the p
// dimension to workers goroutines when workers > 1 (rightmul_parallel.go
// says why that cannot change a bit); the vector kernels A·v and v·A are
// one sequential body each and ignore workers. The result bits are the
// same for every workers value. A nil dst allocates the result; a
// caller-owned one removes the last per-op allocation.
// Batch.MulVec/VecMul/MulMat/MatMul are the plan used once: build, one
// kernel, release.
//
// Lifecycle. A plan and its tree memory come from a pool. Release hands
// both back, after which the next NewKernelPlan — for any batch — reuses
// them, so a loop that builds a plan, runs its kernels and releases it
// allocates nothing in steady state (TestPlanIntoAllocs). Release is
// optional: a plan that is never released is simply garbage collected.
// A released plan must not be used again; until the pool hands it to a
// new owner every kernel call on it panics and a second Release is a
// no-op, but once reused it IS another caller's plan — the usual contract
// of pooled memory.
//
// Between NewKernelPlan and Release the tree is read-only, and all
// per-call state (the H accumulator, M·A's column gather) comes
// from the shared scratch pool, so one plan is safe for concurrent use by
// multiple goroutines. A plan is tied to the batch it was built from;
// batches are immutable (Scale returns a new Batch), so it never goes
// stale.
type KernelPlan struct {
	b     *Batch      // nil once released
	tree  *DecodeTree // the batch's C'
	arena treeArena   // tree's backing memory, kept across pool round trips
}

var planPool = sync.Pool{New: func() any { return new(KernelPlan) }}

// NewKernelPlan builds the batch's decode tree once and returns a plan
// sharing it across kernel calls. TreeBuilds exposes the white-box build
// counter that proves the amortization.
func (b *Batch) NewKernelPlan() *KernelPlan {
	p := planPool.Get().(*KernelPlan)
	p.b = b
	p.tree = p.arena.build(b.i.len(), &b.d)
	return p
}

// Release returns the plan and its tree memory to the pool. The caller
// must not use the plan afterwards (see the lifecycle notes on
// KernelPlan).
func (p *KernelPlan) Release() {
	if p.b == nil {
		return
	}
	p.b, p.tree = nil, nil
	planPool.Put(p)
}

// Batch returns the batch the plan was built for. Like every other
// method but Release, it panics on a released plan.
func (p *KernelPlan) Batch() *Batch {
	if p.b == nil {
		panic("core: KernelPlan used after Release")
	}
	return p.b
}

// MulVecInto computes A·v into dst (length rows, fully overwritten; nil
// allocates) and returns it. workers is accepted for interface symmetry,
// the vector kernels always run on the caller's goroutine — see the
// table in README.
func (p *KernelPlan) MulVecInto(dst, v []float64, workers int) []float64 {
	b := p.Batch()
	if len(v) != b.cols {
		panic(fmt.Sprintf("core: MulVec dim mismatch %d != %d", len(v), b.cols))
	}
	r := matrix.IntoVec(dst, b.Rows(), false, "core: KernelPlan.MulVecInto")
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	b.mulVecTree(p.tree, sc, v, r)
	return r
}

// MulMatInto computes A·M, M being cols × p, into dst (rows × p, zeroed
// first; nil allocates) and returns it. workers > 1 shards the panels of
// the p result columns.
func (p *KernelPlan) MulMatInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	b := p.Batch()
	if m.Rows() != b.cols {
		panic(fmt.Sprintf("core: MulMat dim mismatch %d != %d", m.Rows(), b.cols))
	}
	r := matrix.IntoDense(dst, b.Rows(), m.Cols(), "core: KernelPlan.MulMatInto")
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	b.mulMatTree(p.tree, sc, m, r, workers)
	return r
}

// VecMulInto computes v·A into dst (length cols, zeroed first; nil
// allocates) and returns it. workers is accepted for interface symmetry,
// the vector kernels always run on the caller's goroutine — see the
// table in README.
func (p *KernelPlan) VecMulInto(dst, v []float64, workers int) []float64 {
	b := p.Batch()
	if len(v) != b.Rows() {
		panic(fmt.Sprintf("core: VecMul dim mismatch %d != %d", len(v), b.Rows()))
	}
	r := matrix.IntoVec(dst, b.cols, true, "core: KernelPlan.VecMulInto")
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	b.vecMulTree(p.tree, sc, v, r)
	return r
}

// MatMulInto computes M·A, M being p × rows, into dst (p × cols, zeroed
// first; nil allocates) and returns it. workers > 1 shards the p
// dimension by panels.
func (p *KernelPlan) MatMulInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	b := p.Batch()
	if m.Cols() != b.Rows() {
		panic(fmt.Sprintf("core: MatMul dim mismatch %d != %d", m.Cols(), b.Rows()))
	}
	r := matrix.IntoDense(dst, m.Rows(), b.cols, "core: KernelPlan.MatMulInto")
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	b.matMulTree(p.tree, sc, m, r, workers)
	return r
}
