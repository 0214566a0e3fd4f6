package core

import (
	"fmt"
	"runtime"
	"sync"

	"toc/internal/matrix"
)

// Parallel left multiplications: v·A (Algorithm 5) and M·A (Algorithm 8)
// sharded across goroutines. Unlike the right-mul path
// (rightmul_parallel.go), where every output row depends on one tuple of
// D only, the left-mul D scan accumulates into shared per-node state
// H[x] = G(x). Sharding D by rows would give each worker a partial H
// whose per-node sums fold in a different order than the sequential scan,
// so the merged floats could drift from VecMul/MatMul in the last bit —
// and the engine's "worker count never changes the trajectory" guarantee
// would be lost.
//
// The kernels therefore partition the *accumulators*, not the rows, which
// keeps every floating-point reduction in exactly the sequential order:
//
//   - VecMulParallel splits the node space: every worker scans all of D
//     but owns a disjoint slice of H, so each H[x] is accumulated by one
//     worker in sequential row order. The backward C' scan splits in two:
//     the parent pushes (a chain along the tree, inherently sequential)
//     and the r[col] scatter, which shards over disjoint column ranges.
//   - MatMulParallel splits the p dimension (rows of M): worker w owns
//     columns [lo,hi) of every H row and rows [lo,hi) of the result, so
//     both the D scan and the fused backward scan run concurrently with
//     no barrier between them.
//
// Result: both kernels return bits identical to their sequential
// counterparts for any worker count (asserted by TestLeftMulParallel*).

// VecMulParallel computes v·A like VecMul with the D scan sharded over
// disjoint node ranges and the final column scatter sharded over disjoint
// column ranges (workers <= 0 uses GOMAXPROCS). The result is bitwise
// identical to VecMul for any worker count.
func (b *Batch) VecMulParallel(v []float64, workers int) []float64 {
	if len(v) != b.rows {
		panic(fmt.Sprintf("core: VecMulParallel dim mismatch %d != %d", len(v), b.rows))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := make([]float64, b.cols)
	if b.variant == SparseOnly {
		b.vecMulSparseParallel(v, r, workers)
		return r
	}
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	t := sc.arena.build(b.i, b.d)
	if workers == 1 || b.rows < 2*workers {
		b.vecMulTree(t, sc, v, r)
	} else {
		b.vecMulTreePar(t, sc, v, r, workers)
	}
	return r
}

// vecMulTreePar is the accumulator-sharded v·A body over a built tree,
// accumulating into r (length cols, caller-zeroed).
func (b *Batch) vecMulTreePar(t *DecodeTree, sc *opScratch, v, r []float64, workers int) {
	h := sc.floatBuf(t.Len())

	// Scan D with the node space partitioned: worker w reads every tuple
	// but accumulates only H[x] for x in its range, so each node's sum
	// folds in the sequential row order. Ranges are equal-width; the scan
	// (shared, read-only) dominates the adds, so width imbalance is minor
	// and each worker's writes stay within one cache-friendly slice of H.
	wd := workers
	if wd > t.Len()-1 {
		wd = t.Len() - 1
	}
	if wd > 1 {
		var wg sync.WaitGroup
		span := (t.Len() - 1 + wd - 1) / wd
		for w := 0; w < wd; w++ {
			nlo := uint32(1 + w*span)
			nhi := uint32(1 + (w+1)*span)
			if nhi > uint32(t.Len()) {
				nhi = uint32(t.Len())
			}
			if nlo >= nhi {
				break
			}
			wg.Add(1)
			go func(nlo, nhi uint32) {
				defer wg.Done()
				nodes, starts := b.d.Nodes, b.d.Starts
				boundsHint(0, b.rows, len(starts), len(v))
				for i := 0; i < b.rows; i++ {
					vi := v[i]
					for _, n := range nodes[starts[i]:starts[i+1]] {
						if n >= nlo && n < nhi {
							h[n] += vi
						}
					}
				}
			}(nlo, nhi)
		}
		wg.Wait()
	} else {
		b.vecMulRows(v, h)
	}

	// The parent pushes walk child→parent chains and must stay sequential;
	// after this pass h[i] holds exactly the value the fused backward scan
	// of VecMul reads at step i (children of i all have larger indexes, so
	// h[i] never changes after its own step in either formulation).
	leftPushSeq(t, h)

	b.scatterCols(t, h, r, workers)
}

// leftPushSeq accumulates every node's weight onto its parent, back to
// front — the sequential half of the split backward scan.
func leftPushSeq(t *DecodeTree, h []float64) {
	par := t.Parent
	h = h[:len(par)]
	for i := len(par) - 1; i >= 1; i-- {
		h[par[i]] += h[i]
	}
}

// scatterSeq applies the r[col] contributions of the backward scan after
// the parent pushes have run; per column the order matches the fused
// sequential scan (descending node index).
func (b *Batch) scatterSeq(t *DecodeTree, h, r []float64) {
	I, kix := b.i, t.KeyIdx
	h = h[:len(kix)]
	for i := len(kix) - 1; i >= 1; i-- {
		k := I[kix[i]-1]
		r[k.Col] += k.Val * h[i]
	}
}

// scatterCols is scatterSeq sharded over disjoint column ranges: every
// worker scans C' in the same descending order but applies only its
// columns, so each r[col] accumulates bitwise identically. Benchmarked
// against keeping the scatter sequential in BenchmarkVecMulBackward; the
// sharded form wins once C' outgrows the L1 cache, so it is the default
// above a small size floor.
func (b *Batch) scatterCols(t *DecodeTree, h, r []float64, workers int) {
	cols := len(r)
	if workers > cols {
		workers = cols
	}
	if workers <= 1 || t.Len() < 4*workers {
		b.scatterSeq(t, h, r)
		return
	}
	var wg sync.WaitGroup
	span := (cols + workers - 1) / workers
	for w := 0; w < workers; w++ {
		clo := uint32(w * span)
		chi := uint32((w + 1) * span)
		if chi > uint32(cols) {
			chi = uint32(cols)
		}
		if clo >= chi {
			break
		}
		wg.Add(1)
		go func(clo, chi uint32) {
			defer wg.Done()
			I, kix := b.i, t.KeyIdx
			hw := h[:len(kix)]
			for i := len(kix) - 1; i >= 1; i-- {
				k := I[kix[i]-1]
				if k.Col >= clo && k.Col < chi {
					r[k.Col] += k.Val * hw[i]
				}
			}
		}(clo, chi)
	}
	wg.Wait()
}

// vecMulSparseParallel is the SparseOnly v·A with the scatter sharded over
// disjoint column ranges, accumulating into r (caller-zeroed); per column
// the accumulation order is the sequential row order, so the result is
// bitwise identical.
func (b *Batch) vecMulSparseParallel(v, r []float64, workers int) {
	if workers > b.cols {
		workers = b.cols
	}
	if workers <= 1 {
		b.vecMulSparseSeq(v, r)
		return
	}
	var wg sync.WaitGroup
	span := (b.cols + workers - 1) / workers
	for w := 0; w < workers; w++ {
		clo := uint32(w * span)
		chi := uint32((w + 1) * span)
		if chi > uint32(b.cols) {
			chi = uint32(b.cols)
		}
		if clo >= chi {
			break
		}
		wg.Add(1)
		go func(clo, chi uint32) {
			defer wg.Done()
			starts, cols, vals := b.srStarts, b.srCols, b.srVals
			boundsHint(0, b.rows, len(starts), len(v))
			for i := 0; i < b.rows; i++ {
				vi := v[i]
				if vi == 0 {
					continue
				}
				cs := cols[starts[i]:starts[i+1]]
				vs := vals[starts[i]:starts[i+1]]
				vs = vs[:len(cs)]
				for k, c := range cs {
					if c >= clo && c < chi {
						r[c] += vi * vs[k]
					}
				}
			}
		}(clo, chi)
	}
	wg.Wait()
}

// MatMulParallel computes M·A like MatMul with the p dimension (rows of M
// and of the result) sharded across workers goroutines (workers <= 0 uses
// GOMAXPROCS). Worker w computes result rows [lo,hi) end to end — its
// slice of every H row in the D scan, then its slice of the fused
// backward scan — with every per-element reduction in the sequential
// order, so the result is bitwise identical to MatMul for any worker
// count.
func (b *Batch) MatMulParallel(m *matrix.Dense, workers int) *matrix.Dense {
	if m.Cols() != b.rows {
		panic(fmt.Sprintf("core: MatMulParallel dim mismatch %d != %d", m.Cols(), b.rows))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := m.Rows()
	if workers > p {
		workers = p
	}
	if workers <= 1 {
		return b.MatMul(m)
	}
	r := matrix.NewDense(p, b.cols)
	if b.variant == SparseOnly {
		forEachSpan(p, workers, func(klo, khi int) { b.matMulSparseRange(m, r, klo, khi) })
		return r
	}
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	t := sc.arena.build(b.i, b.d)
	b.matMulTreePar(t, sc, m, r, workers)
	return r
}

// matMulTreePar is the p-sharded M·A body over a built tree, accumulating
// into r (p × cols, caller-zeroed); callers guarantee 2 <= workers <= p.
// No barrier between the scans: worker w touches only columns [klo,khi)
// of H and rows [klo,khi) of r, so its backward scan depends on nothing
// another worker writes. Each worker gathers its slice of M's column into
// a private contiguous buffer per tuple, as the sequential matMulTree
// does for the whole column.
func (b *Batch) matMulTreePar(t *DecodeTree, sc *opScratch, m *matrix.Dense, r *matrix.Dense, workers int) {
	p := m.Rows()
	h := sc.floatBuf(t.Len() * p)
	md := m.Data()
	mcols := m.Cols()
	rd := r.Data()
	rcols := r.Cols()
	forEachSpan(p, workers, func(klo, khi int) {
		mc := make([]float64, khi-klo)
		nodes, starts := b.d.Nodes, b.d.Starts
		boundsHint(0, b.rows, len(starts), b.rows)
		for i := 0; i < b.rows; i++ {
			row := nodes[starts[i]:starts[i+1]]
			if len(row) == 0 {
				continue
			}
			off := klo*mcols + i
			for k := range mc {
				mc[k] = md[off]
				off += mcols
			}
			for _, n := range row {
				hn := h[int(n)*p+klo : int(n)*p+klo+len(mc)]
				mw := mc
				for len(hn) >= 4 && len(mw) >= 4 {
					hn[0] += mw[0]
					hn[1] += mw[1]
					hn[2] += mw[2]
					hn[3] += mw[3]
					hn, mw = hn[4:], mw[4:]
				}
				for len(hn) >= 1 && len(mw) >= 1 {
					hn[0] += mw[0]
					hn, mw = hn[1:], mw[1:]
				}
			}
		}
		I, par := b.i, t.Parent
		kix := t.KeyIdx[:len(par)]
		for i := len(par) - 1; i >= 1; i-- {
			k := I[kix[i]-1]
			hi := h[i*p+klo : i*p+khi]
			hp := h[int(par[i])*p+klo : int(par[i])*p+khi]
			hp = hp[:len(hi)]
			kv := k.Val
			off := klo*rcols + int(k.Col)
			for j := 0; j < len(hi); j++ {
				rd[off] += kv * hi[j]
				hp[j] += hi[j]
				off += rcols
			}
		}
	})
}
