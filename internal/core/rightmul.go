package core

import (
	"fmt"

	"toc/internal/matrix"
)

// Right multiplication operations: A·v (Algorithm 4, Theorem 1) and A·M
// (Algorithm 7, Theorem 3). Both run directly on the TOC output: the
// decode tree C' is built once, scanned once forward to evaluate
// F(x) = C'[x].seq · v by dynamic programming over parent links
// (Equation 6), then D is scanned once to sum F over each tuple's codes
// (Equation 5).
//
// The bodies here take an already-built tree and a worker count; their
// one caller is KernelPlan (plan.go), which builds C' once per batch-step
// and shares it across every kernel call of that step. Batch.MulVec and
// Batch.MulMat are a plan used for a single sequential call — the paper's
// cost model, one rebuild per op. rightmul_parallel.go says why the
// sharded scans cannot change a bit.
// Every body reads a node's key through the first layer, I[KeyIdx[i]-1]
// (decodetree.go); A·v goes one step further and multiplies each of the
// |I| distinct pairs by v exactly once.
//
// The inner loops are written for the hardware, not the paper's
// pseudocode: D is walked through the flat Nodes/Starts arrays with the
// shard bounds proven up front (boundsHint) so the compiler drops the
// per-element checks, and the per-row reductions are 4-way unrolled.
// Every unroll keeps the exact sequential fold order — a single
// accumulator chain for scalar sums, per-column independence for the
// matrix rows — so results stay bitwise identical to the pre-rewrite
// loops, which the equivalence tests pin at every worker count.

// boundsHint asserts lo <= hi, hi < len(starts) and hi <= limit, giving
// the compiler the facts it needs to drop the starts[i]/starts[i+1] and
// result-index bounds checks inside a [lo,hi) row loop. The callers'
// shard drivers always satisfy it; a violation is a kernel bug. The
// panic formatting lives in its own function so this guard stays under
// the inline budget — only the inlined form feeds the prove pass.
func boundsHint(lo, hi, startsLen, limit int) {
	if lo < 0 || lo > hi || hi >= startsLen || hi > limit {
		panicShard(lo, hi, startsLen, limit)
	}
}

//go:noinline
func panicShard(lo, hi, startsLen, limit int) {
	panic(fmt.Sprintf("core: row shard [%d,%d) out of range (starts %d, limit %d)", lo, hi, startsLen, limit))
}

// MulVec computes A·v on the compressed batch.
func (b *Batch) MulVec(v []float64) []float64 {
	p := b.NewKernelPlan()
	defer p.Release()
	return p.MulVecInto(nil, v, 1)
}

// mulVecTree is A·v over an already-built decode tree, writing into r
// (length rows, fully overwritten). The scalar H scan stays sequential
// for any worker count (each H[i] chains on its parent, and it is a
// |C'|-long stream of 8-byte gathers next to the D scan's |D| of them);
// the D scan shards over result rows when workers > 1.
func (b *Batch) mulVecTree(t *DecodeTree, sc *opScratch, v, r []float64, workers int) {
	// Scan C' to compute H[i] = F(i) = C'[i].key·v + H[parent(i)]; parents
	// precede children, so one forward pass suffices and writes every H[i]
	// before anything reads it (only the root needs clearing).
	//
	// Every key of C' is a first-layer pair, so key·v takes only |I|
	// distinct values, and first-layer node k+1 — key I[k], parent the
	// root — has exactly that product for its H. So the |I| multiplies
	// run once, straight into H, and every later node adds two gathered
	// H values: its key's and its parent's, the only two bounds checks
	// left in the loop. (The textbook "+ H[root]" the first layer skips is
	// "+ 0": it could only turn a -0 product into +0, and no result can
	// tell, because every R[i] is a sum that starts from +0.) The explicit
	// conversion rounds the product before anything is added to it — the
	// unfused multiply-then-add on every architecture, whatever the
	// compiler may fuse elsewhere.
	I := b.i
	par := t.Parent
	kix := t.KeyIdx[:len(par)]
	h := sc.rawBuf(len(par))
	h[0] = 0
	first := len(I) + 1 // the nodes below it are the first layer
	hf := h[1:first]
	for k, p := range I {
		hf[k] = float64(p.Val * v[p.Col])
	}
	pw, kw, hw := par[first:], kix[first:], h[first:]
	for j := range pw {
		hw[j] = h[kw[j]] + h[pw[j]]
	}
	if workers > 1 {
		forEachSpan(b.rows, workers, func(lo, hi int) { b.mulVecRows(h, r, lo, hi) })
	} else {
		b.mulVecRows(h, r, 0, b.rows)
	}
}

// mulVecRows scans D for result rows [lo,hi): R[i] = Σ_j H[D[i][j]]. Each
// output row is an independent sequential reduction, so disjoint row
// ranges compute bitwise-identical results concurrently. The walk is flat
// over Nodes/Starts with a 4-way unrolled single-chain accumulation: the
// fold order is exactly the sequential one, only the loop control is
// amortized over four elements. Advancing by re-slicing row (rather than
// indexing with k) is what lets the compiler drop the row element checks;
// only the data-dependent h gathers keep theirs.
func (b *Batch) mulVecRows(h, r []float64, lo, hi int) {
	nodes, starts := b.d.Nodes, b.d.Starts
	boundsHint(lo, hi, len(starts), len(r))
	for i := lo; i < hi; i++ {
		row := nodes[starts[i]:starts[i+1]]
		var s float64
		for len(row) >= 4 {
			s += h[row[0]]
			s += h[row[1]]
			s += h[row[2]]
			s += h[row[3]]
			row = row[4:]
		}
		for len(row) >= 1 {
			s += h[row[0]]
			row = row[1:]
		}
		r[i] = s
	}
}

// mulVecSparseRows is the SparseOnly A·v for result rows [lo,hi), the
// same flat walk over srStarts/srCols/srVals.
func (b *Batch) mulVecSparseRows(v, r []float64, lo, hi int) {
	starts, cols, vals := b.srStarts, b.srCols, b.srVals
	boundsHint(lo, hi, len(starts), len(r))
	for i := lo; i < hi; i++ {
		cs := cols[starts[i]:starts[i+1]]
		vs := vals[starts[i]:starts[i+1]]
		var s float64
		for len(cs) >= 4 && len(vs) >= 4 {
			s += vs[0] * v[cs[0]]
			s += vs[1] * v[cs[1]]
			s += vs[2] * v[cs[2]]
			s += vs[3] * v[cs[3]]
			cs, vs = cs[4:], vs[4:]
		}
		for len(cs) >= 1 && len(vs) >= 1 {
			s += vs[0] * v[cs[0]]
			cs, vs = cs[1:], vs[1:]
		}
		r[i] = s
	}
}

// MulMat computes A·M on the compressed batch, where M is cols × p.
func (b *Batch) MulMat(m *matrix.Dense) *matrix.Dense {
	p := b.NewKernelPlan()
	defer p.Release()
	return p.MulMatInto(nil, m, 1)
}

// mulMatTree is A·M over an already-built decode tree, accumulating into
// r (rows × p, caller-zeroed). With workers > 1 the forward H scan shards
// over the p result columns and the D scan over result rows.
func (b *Batch) mulMatTree(t *DecodeTree, sc *opScratch, m *matrix.Dense, r *matrix.Dense, workers int) {
	p := m.Cols()
	h := sc.floatBuf(t.Len() * p)
	cw := workers
	if cw > p {
		cw = p
	}
	if cw > 1 {
		forEachSpan(p, cw, func(clo, chi int) { b.mulMatForwardCols(t, m, h, p, clo, chi) })
	} else {
		b.mulMatForwardCols(t, m, h, p, 0, p)
	}
	if workers > 1 {
		forEachSpan(b.rows, workers, func(lo, hi int) { b.mulMatRows(h, r, p, lo, hi) })
	} else {
		b.mulMatRows(h, r, p, 0, b.rows)
	}
}

// mulMatForwardCols runs the C' forward scan for result columns
// [clo,chi): H[i,j] = key.Val·M[key.Col,j] + H[parent,j]. Column j of
// every H row depends only on column j of its parent row, so each
// column's parent-chain DP is an independent sequential recurrence —
// disjoint column ranges run concurrently with every per-element fold in
// exactly the sequential order. The three operand windows are sliced to
// one length and the column loop 4-way unrolled (columns are independent,
// so unrolling cannot reassociate anything).
func (b *Batch) mulMatForwardCols(t *DecodeTree, m *matrix.Dense, h []float64, p, clo, chi int) {
	I, par := b.i, t.Parent
	kix := t.KeyIdx[:len(par)]
	for i := 1; i < len(par); i++ {
		k := I[kix[i]-1]
		hw := h[i*p+clo : i*p+chi]
		hp := h[int(par[i])*p+clo : int(par[i])*p+chi]
		mr := m.Row(int(k.Col))[clo:chi]
		kv := k.Val
		for len(hw) >= 4 && len(hp) >= 4 && len(mr) >= 4 {
			hw[0] = kv*mr[0] + hp[0]
			hw[1] = kv*mr[1] + hp[1]
			hw[2] = kv*mr[2] + hp[2]
			hw[3] = kv*mr[3] + hp[3]
			hw, hp, mr = hw[4:], hp[4:], mr[4:]
		}
		for len(hw) >= 1 && len(hp) >= 1 && len(mr) >= 1 {
			hw[0] = kv*mr[0] + hp[0]
			hw, hp, mr = hw[1:], hp[1:], mr[1:]
		}
	}
}

// mulMatRows scans D for result rows [lo,hi); the loop over result
// columns is innermost for cache friendliness, as the paper notes for
// Algorithm 7. Each output row depends on one tuple of D only; per
// column the adds land in node order, so the 4-way unroll over the
// independent columns changes no fold.
func (b *Batch) mulMatRows(h []float64, r *matrix.Dense, p, lo, hi int) {
	nodes, starts := b.d.Nodes, b.d.Starts
	boundsHint(lo, hi, len(starts), r.Rows())
	for i := lo; i < hi; i++ {
		ri := r.Row(i)
		row := nodes[starts[i]:starts[i+1]]
		for _, n := range row {
			hn := h[int(n)*p : int(n)*p+len(ri)]
			rw := ri
			for len(rw) >= 4 && len(hn) >= 4 {
				rw[0] += hn[0]
				rw[1] += hn[1]
				rw[2] += hn[2]
				rw[3] += hn[3]
				rw, hn = rw[4:], hn[4:]
			}
			for len(rw) >= 1 && len(hn) >= 1 {
				rw[0] += hn[0]
				rw, hn = rw[1:], hn[1:]
			}
		}
	}
}

// mulMatSparseRows is the SparseOnly A·M for result rows [lo,hi): the
// flat sparse walk with the per-column accumulation unrolled like
// mulMatRows.
func (b *Batch) mulMatSparseRows(m *matrix.Dense, r *matrix.Dense, lo, hi int) {
	starts, cols, vals := b.srStarts, b.srCols, b.srVals
	boundsHint(lo, hi, len(starts), r.Rows())
	for i := lo; i < hi; i++ {
		ri := r.Row(i)
		for k := starts[i]; k < starts[i+1]; k++ {
			val := vals[k]
			mr := m.Row(int(cols[k]))
			rw := ri
			for len(rw) >= 4 && len(mr) >= 4 {
				rw[0] += val * mr[0]
				rw[1] += val * mr[1]
				rw[2] += val * mr[2]
				rw[3] += val * mr[3]
				rw, mr = rw[4:], mr[4:]
			}
			for len(rw) >= 1 && len(mr) >= 1 {
				rw[0] += val * mr[0]
				rw, mr = rw[1:], mr[1:]
			}
		}
	}
}
