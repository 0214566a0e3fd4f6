package core

import "sync"

// Sharding the right multiplications A·v (Algorithm 4) and A·M
// (Algorithm 7) — the forward pass of every model. leftmul_parallel.go
// covers the other direction.
//
// Right multiplications are the easy direction: every output row depends
// on exactly one tuple of D, so the D scan shards over disjoint result-row
// ranges and each row's reduction folds in the sequential order untouched.
// The H table adds one subtlety per kernel:
//
//   - mulVecTree keeps its scalar H scan sequential. Each H[i] chains on
//     H[parent(i)]; |C'| is of the order of |D| (one node per non-final
//     tuple element, plus |I|), not far below it, but the scan is two
//     8-byte gathers per node with the |I| multiplies done up front, so
//     it is the cheap half and the chain is not worth breaking.
//   - mulMatTree shards the H scan over the p result columns: column j of
//     every H row depends only on column j of its parent row, so each
//     column's parent-chain DP is an independent sequential recurrence.
//
// Both kernels therefore return the same bits for any worker count
// (asserted by TestRightMulParallel*), which is what lets the engine pick
// a worker count freely without ever changing a training trajectory.
// SparseOnly batches shard over rows the same way.

// rightWorkers clamps a requested worker count against the row count: a
// shard is only worth a goroutine with at least two rows to scan, and
// anything below one worker is one.
func rightWorkers(workers, rows int) int {
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
