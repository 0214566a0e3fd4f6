package core

import "sync"

// Sharding the matrix kernels A·M (Algorithm 7) and M·A (Algorithm 8).
// The vector kernels A·v and v·A are one sequential body each: a fork
// inside a 15-500 µs scan was measured slower than the scan at every
// shape (the table in README), so workers means panel runs of A·M / M·A
// and nothing else.
//
// Column j of every H row of A·M depends only on column j of its parent
// row, and column j of every result row only on column j of H, so each
// of the p result columns is an independent sequential recurrence
// through both scans. The sequential kernel already exploits that to run
// a panel of columns at a time on a small H slab; a worker is handed a
// run of the panels and a slab of its own, and no barrier separates its
// forward scan from its D scan. M·A splits its p dimension (rows of M)
// the same way; leftmul.go says why that is the only split that keeps
// its reductions in order. SparseOnly batches have no H: A·M shards over
// result rows and M·A over rows of M (forEachSpan), each output element
// still one sequential reduction.
//
// Both kernels therefore return the same bits for any worker count
// (asserted by TestRightMulParallel* and TestLeftMulParallel*), which is
// what lets the engine pick a worker count freely without ever changing
// a training trajectory.

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

// panelWidth is how many of the p columns of H the matrix kernels A·M and
// M·A compute at a time: H is a |C'|×panelWidth slab per worker, not
// |C'|×p. Measured on 250-row mnist (×196), imagenet (×180) and census
// batches at p = 200 on the 2-core 2.6 GHz Xeon (1.25 MB L2, 54 MB L3):
// both kernels are flat within 8% from 32 to 104 — that L3 absorbs any
// slab — and lose 10-15% at 16 to per-node loop overhead; ram_nn_sync
// end to end cannot tell 32, 48 and 64 apart. So the narrowest flat
// width is taken: it makes the pooled slab, which every GC cycle drops
// and the next step re-makes, 4.8 MB on mnist where 64 makes it 9.6.
const panelWidth = 32

// panelWorkers clamps a requested worker count against the panel count
// of a p-wide operand — a run narrower than a panel pays the whole tree
// walk for a sliver of columns — and anything below one worker is one.
func panelWorkers(workers, p int) int {
	return max(1, min(workers, (p+panelWidth-1)/panelWidth))
}

// forEachPanelRun cuts the p columns into one run per worker and calls
// fn(w, lo, hi) for run w's columns [lo,hi) concurrently, waiting for
// all of them; w indexes the slab of scratch the run may use, and the
// kernel body walks its run panel by panel. Runs are equal-width up to a
// whole cache line of floats, so two workers on p = 200 take 104 and 96
// columns rather than four panels and three.
func forEachPanelRun(p, workers int, fn func(w, lo, hi int)) {
	span := ((p+workers-1)/workers + 7) &^ 7
	var wg sync.WaitGroup
	for w := 0; w*span < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, w*span, min((w+1)*span, p))
		}(w)
	}
	wg.Wait()
}
