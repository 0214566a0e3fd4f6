package core

import "sync"

// Sharding the left multiplications v·A (Algorithm 5) and M·A
// (Algorithm 8). Unlike the right-mul path (rightmul_parallel.go), where
// every output row depends on one tuple of D only, the left-mul D scan
// accumulates into shared per-node state H[x] = G(x). Sharding D by rows
// would give each worker a partial H whose per-node sums fold in a
// different order than the sequential scan, so the merged floats could
// drift in the last bit — and the engine's "worker count never changes
// the trajectory" guarantee would be lost.
//
// The kernels therefore partition the *accumulators*, not the rows, which
// keeps every floating-point reduction in exactly the sequential order:
//
//   - vecMulTreePar (here) splits the node space: every worker scans all
//     of D but owns a disjoint slice of H, so each H[x] is accumulated by
//     one worker in sequential row order. The backward C' scan splits in
//     two: the parent pushes (a chain along the tree, inherently
//     sequential) and the r[col] scatter, which shards over disjoint
//     column ranges. It is a different algorithm from the fused backward
//     scan of vecMulTree, which stays the workers <= 1 kernel.
//   - matMulTree (leftmul.go) splits the p dimension (rows of M): the
//     sequential kernel already works through it a panel at a time, each
//     panel a complete M·A for its rows of M on a private H slab, so a
//     worker is simply handed a run of the panels and a slab of its own
//     (forEachPanelRun in rightmul_parallel.go). One body serves every
//     worker count and no barrier separates a run's two scans.
//
// Result: both kernels return the same bits for any worker count
// (asserted by TestLeftMulParallel*).

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
	// of vecMulTree reads at step i (children of i all have larger indexes, so
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
