package core

import (
	"fmt"
	"runtime"
	"sync"

	"toc/internal/matrix"
)

// Parallel right multiplications: A·v (Algorithm 4) and A·M (Algorithm 7)
// sharded across goroutines — the forward pass of every model, completing
// the kernel-parallelism story the left multiplications started in
// leftmul_parallel.go.
//
// Right multiplications are the easy direction: every output row depends
// on exactly one tuple of D, so the D scan shards over disjoint result-row
// ranges and each row's reduction folds in the sequential order untouched.
// The H table adds one subtlety per kernel:
//
//   - MulVecParallel keeps its scalar H scan sequential. Each H[i] chains
//     on H[parent(i)]; |C'| is of the order of |D| (one node per non-final
//     tuple element, plus |I|), not far below it, but the scan is two
//     8-byte gathers per node with the |I| multiplies done up front, so
//     it is the cheap half and the chain is not worth breaking.
//   - MulMatParallel shards the H scan over the p result columns: column
//     j of every H row depends only on column j of its parent row, so each
//     column's parent-chain DP is an independent sequential recurrence.
//
// Both kernels therefore return results bitwise identical to MulVec and
// MulMat for any worker count (asserted by TestRightMulParallel*), which
// is what lets the engine flip between them freely without ever changing
// a training trajectory. SparseOnly batches shard over rows the same way.

// rightWorkers normalizes a requested worker count against the row count:
// <= 0 picks GOMAXPROCS, and a shard is only worth a goroutine with at
// least two rows to scan.
func rightWorkers(workers, rows int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (rows + 1) / 2; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// forEachSpan splits [0,n) into equal-width spans and runs fn on each
// concurrently, waiting for all of them.
func forEachSpan(n, workers int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	span := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*span, (w+1)*span
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// forEachRowShard is forEachSpan over result rows.
func forEachRowShard(rows, workers int, fn func(lo, hi int)) {
	forEachSpan(rows, workers, fn)
}

// MulVecParallel computes A·v like MulVec with the D scan sharded over
// disjoint result-row ranges (workers <= 0 uses GOMAXPROCS). The result
// is bitwise identical to MulVec for any worker count.
func (b *Batch) MulVecParallel(v []float64, workers int) []float64 {
	if len(v) != b.cols {
		panic(fmt.Sprintf("core: MulVecParallel dim mismatch %d != %d", len(v), b.cols))
	}
	workers = rightWorkers(workers, b.rows)
	r := make([]float64, b.rows)
	if b.variant == SparseOnly {
		b.mulVecSparsePar(v, r, workers)
		return r
	}
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	t := sc.arena.build(b.i, b.d)
	b.mulVecTree(t, sc, v, r, workers)
	return r
}

// mulVecSparsePar is the SparseOnly A·v with rows sharded, writing into r
// (length rows, fully overwritten).
func (b *Batch) mulVecSparsePar(v, r []float64, workers int) {
	if workers > 1 {
		forEachRowShard(b.rows, workers, func(lo, hi int) { b.mulVecSparseRows(v, r, lo, hi) })
	} else {
		b.mulVecSparseRows(v, r, 0, b.rows)
	}
}

// MulMatParallel computes A·M like MulMat with the C' forward scan
// sharded over the p result columns and the D scan sharded over result
// rows (workers <= 0 uses GOMAXPROCS). The result is bitwise identical to
// MulMat for any worker count.
func (b *Batch) MulMatParallel(m *matrix.Dense, workers int) *matrix.Dense {
	if m.Rows() != b.cols {
		panic(fmt.Sprintf("core: MulMatParallel dim mismatch %d != %d", m.Rows(), b.cols))
	}
	workers = rightWorkers(workers, b.rows)
	r := matrix.NewDense(b.rows, m.Cols())
	if b.variant == SparseOnly {
		b.mulMatSparsePar(m, r, workers)
		return r
	}
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	t := sc.arena.build(b.i, b.d)
	b.mulMatTree(t, sc, m, r, workers)
	return r
}

// mulMatSparsePar is the SparseOnly A·M with rows sharded, accumulating
// into r (rows × p, caller-zeroed).
func (b *Batch) mulMatSparsePar(m *matrix.Dense, r *matrix.Dense, workers int) {
	if workers > 1 {
		forEachRowShard(b.rows, workers, func(lo, hi int) { b.mulMatSparseRows(m, r, lo, hi) })
	} else {
		b.mulMatSparseRows(m, r, 0, b.rows)
	}
}
