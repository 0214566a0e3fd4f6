package storage

import (
	"math/rand"
	"sync"
	"testing"

	"toc/internal/matrix"
	"toc/internal/testutil"
)

// spilledStore builds a store of n 4-row batches that all spill to disk.
func spilledStore(t *testing.T, n int, opts ...Option) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir(), "TOC", 1, opts...) // 1-byte budget: everything spills
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for b := 0; b < n; b++ {
		x := matrix.NewDense(4, 6)
		for i := 0; i < 4; i++ {
			for j := 0; j < 6; j++ {
				x.Set(i, j, float64((b+i*j)%5))
			}
		}
		if err := st.Add(x, []float64{0, 1, 0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Spilled() {
		t.Fatal("expected batches to spill")
	}
	return st
}

// A sequential scan behind a warm prefetcher should be all hits: the
// window is primed at construction and stays depth batches ahead,
// wrapping across the epoch boundary.
func TestPrefetcherSequentialScanAllHits(t *testing.T) {
	const n = 12
	st := spilledStore(t, n)
	pf := NewPrefetcher(st, 4, 2)
	defer pf.Close()
	if pf.NumBatches() != n {
		t.Fatalf("NumBatches = %d", pf.NumBatches())
	}
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < n; i++ {
			c, y := pf.Batch(i)
			want, wantY := st.Batch(i)
			if !c.Decode().Equal(want.Decode()) {
				t.Fatalf("batch %d contents differ", i)
			}
			if len(y) != len(wantY) {
				t.Fatalf("batch %d labels differ", i)
			}
		}
	}
	ps := pf.Stats()
	if ps.Misses != 0 {
		t.Errorf("sequential scan missed %d times: %+v", ps.Misses, ps)
	}
	if ps.Hits != 2*n {
		t.Errorf("Hits = %d, want %d", ps.Hits, 2*n)
	}
	if ps.Prefetched < ps.Hits {
		t.Errorf("Prefetched = %d < Hits = %d", ps.Prefetched, ps.Hits)
	}
}

// Jumping far outside the prefetch window is a miss, served synchronously.
func TestPrefetcherOutOfWindowMiss(t *testing.T) {
	const n = 12
	st := spilledStore(t, n)
	pf := NewPrefetcher(st, 3, 2)
	defer pf.Close()
	// The primed window covers batches 0..2; batch 8 cannot be in it.
	if _, y := pf.Batch(8); len(y) != 4 {
		t.Fatalf("labels = %v", y)
	}
	if ps := pf.Stats(); ps.Misses != 1 {
		t.Errorf("Misses = %d, want 1: %+v", ps.Misses, ps)
	}
}

// Concurrent Batch calls (the engine's group fan-out) stay correct.
func TestPrefetcherConcurrentReads(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	const n = 16
	st := spilledStore(t, n)
	pf := NewPrefetcher(st, 6, 3)
	defer pf.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, y := pf.Batch(i)
			if c.Rows() != 4 || len(y) != 4 {
				t.Errorf("batch %d: rows=%d labels=%d", i, c.Rows(), len(y))
			}
		}(i)
	}
	wg.Wait()
	ps := pf.Stats()
	if ps.Hits+ps.Misses != n {
		t.Errorf("Hits+Misses = %d, want %d: %+v", ps.Hits+ps.Misses, n, ps)
	}
}

// Concurrent Batch calls for the same in-flight index must share the one
// outstanding read: no duplicate synchronous read, no phantom miss. The
// store's bandwidth throttle keeps the primed reads in flight long enough
// that every caller arrives before they land.
func TestPrefetcherDuplicateInFlightShared(t *testing.T) {
	const n, depth, dupes = 6, 5, 8
	st := spilledStore(t, n, WithReadBandwidth(4096)) // a few hundred bytes per batch → tens of ms per read
	pf := NewPrefetcher(st, depth, 2)
	defer pf.Close()
	// NewPrefetcher has primed batches 0..depth-1; hit them all, many
	// callers per index, while the reads are still in flight.
	var wg sync.WaitGroup
	for i := 0; i < depth; i++ {
		for d := 0; d < dupes; d++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, y := pf.Batch(i)
				if c.Rows() != 4 || len(y) != 4 {
					t.Errorf("batch %d: rows=%d labels=%d", i, c.Rows(), len(y))
				}
			}(i)
		}
	}
	wg.Wait()
	// The wrap-around window may legitimately re-prefetch consumed batches,
	// but duplicate callers must never add synchronous reads on top: without
	// sharing, up to depth*(dupes-1) extra reads would show up here.
	if got := st.Stats().Reads; got > n+depth {
		t.Errorf("store reads = %d, want <= %d (duplicate callers must share one read)", got, n+depth)
	}
	ps := pf.Stats()
	if ps.Misses != 0 {
		t.Errorf("Misses = %d, want 0: %+v", ps.Misses, ps)
	}
	if ps.Hits != depth*dupes {
		t.Errorf("Hits = %d, want %d", ps.Hits, depth*dupes)
	}
}

// Hammer Batch with duplicate indices from many goroutines (run under
// -race in CI): every request must be answered correctly and counted as
// exactly one hit or miss.
func TestPrefetcherDuplicateIndexHammer(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	const n, goroutines, rounds = 10, 16, 8
	st := spilledStore(t, n)
	pf := NewPrefetcher(st, 4, 3)
	defer pf.Close()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r*3) % n // plenty of cross-goroutine collisions
				c, y := pf.Batch(i)
				if c.Rows() != 4 || len(y) != 4 {
					t.Errorf("batch %d: rows=%d labels=%d", i, c.Rows(), len(y))
				}
			}
		}(g)
	}
	wg.Wait()
	ps := pf.Stats()
	if ps.Hits+ps.Misses != goroutines*rounds {
		t.Errorf("Hits+Misses = %d, want %d: %+v", ps.Hits+ps.Misses, goroutines*rounds, ps)
	}
}

// A sequential scan over a sharded store behind the per-shard readers
// stays all-hits: every shard's queue is serviced concurrently.
func TestPrefetcherShardedSequentialScanAllHits(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	const n = 12
	st, err := NewStore(t.TempDir(), "TOC", 1, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for b := 0; b < n; b++ {
		x := matrix.NewDense(4, 6)
		for i := 0; i < 4; i++ {
			for j := 0; j < 6; j++ {
				x.Set(i, j, float64((b+i*j)%5))
			}
		}
		if err := st.Add(x, []float64{0, 1, 0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	pf := NewPrefetcher(st, 4, 2) // 2 readers requested -> one per shard
	defer pf.Close()
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < n; i++ {
			c, y := pf.Batch(i)
			if c.Rows() != 4 || len(y) != 4 {
				t.Fatalf("batch %d: rows=%d labels=%d", i, c.Rows(), len(y))
			}
		}
	}
	if ps := pf.Stats(); ps.Misses != 0 || ps.Hits != 2*n {
		t.Errorf("sharded scan: %+v, want 0 misses / %d hits", ps, 2*n)
	}
}

// Two workers pulling consecutive positions finish out of order: p+1 is
// consumed, then p. The window must extend from the consumption frontier,
// not from the late caller's own position — scheduling from p re-reads
// the just-consumed p+1, and that copy then sits in the cache until the
// next lap reaches it (after the last lap, for good). One epoch walked by
// two consumers with adjacent positions swapped at random must therefore
// read every batch once (plus the window's wrap into the head), never
// miss, and leave no more than a window's worth of entries behind.
func TestPrefetcherOutOfOrderConsumersNoRereads(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	const n, depth = 64, 6
	st := spilledStore(t, n)
	pf := NewPrefetcher(st, depth, 2)
	defer pf.Close()
	rng := rand.New(rand.NewSource(41))
	visit := make([]int, n) // positions of the sequential order, in consumption order
	for pos := range visit {
		visit[pos] = pos
	}
	swaps := 0
	for pos := 0; pos+1 < n; pos++ {
		if rng.Intn(2) == 0 {
			visit[pos], visit[pos+1] = visit[pos+1], visit[pos]
			swaps++
			pos++ // keep every position within one step of its place
		}
	}
	if swaps < n/8 {
		t.Fatalf("only %d swaps: the walk is not out of order enough to test anything", swaps)
	}

	// The two consumers are real goroutines, handed positions in lock
	// step so the arrival order is the seeded one.
	var work [2]chan int
	done := make(chan struct{})
	for c := range work {
		work[c] = make(chan int)
		go func(ch <-chan int) {
			for idx := range ch {
				pf.Batch(idx)
				done <- struct{}{}
			}
		}(work[c])
	}
	for k, pos := range visit {
		work[k%2] <- pos
		<-done
	}
	for _, ch := range work {
		close(ch)
	}

	ps := pf.Stats()
	if ps.Misses != 0 || ps.Hits != n {
		t.Errorf("out-of-order walk: %+v, want 0 misses / %d hits", ps, n)
	}
	if ps.Prefetched > n+depth {
		t.Errorf("Prefetched = %d for %d visits with depth %d: consumed batches were read again", ps.Prefetched, n, depth)
	}
	pf.mu.Lock()
	left := len(pf.cache)
	pf.mu.Unlock()
	if left > depth {
		t.Errorf("%d entries left in the cache after the epoch, want <= depth (%d)", left, depth)
	}
}

// WithPrefetchBytes bounds the window by compressed bytes instead of raw
// batch count: the cache (prefetched + in flight) never charges past the
// budget, and the window re-extends as entries are consumed.
func TestPrefetcherByteBudgetBoundsWindow(t *testing.T) {
	const n, depth = 12, 8
	st := spilledStore(t, n)
	// Budget: exactly the first two spans of the sequential order. The
	// primed window must stop there even though depth allows 8.
	budget := st.spans[0].length + st.spans[1].length
	pf := NewPrefetcher(st, depth, 2, WithPrefetchBytes(budget))
	defer pf.Close()
	pf.mu.Lock()
	if len(pf.cache) != 2 {
		t.Errorf("primed cache holds %d entries, want 2 (byte budget)", len(pf.cache))
	}
	if pf.cacheBytes > budget {
		t.Errorf("cacheBytes %d exceeds budget %d", pf.cacheBytes, budget)
	}
	pf.mu.Unlock()
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < n; i++ {
			c, y := pf.Batch(i)
			if c.Rows() != 4 || len(y) != 4 {
				t.Fatalf("batch %d: rows=%d labels=%d", i, c.Rows(), len(y))
			}
			pf.mu.Lock()
			if pf.cacheBytes > budget {
				t.Fatalf("after batch %d: cacheBytes %d exceeds budget %d", i, pf.cacheBytes, budget)
			}
			var sum int64
			for _, en := range pf.cache {
				sum += en.size
			}
			if sum != pf.cacheBytes {
				t.Fatalf("cacheBytes %d out of sync with entries %d", pf.cacheBytes, sum)
			}
			pf.mu.Unlock()
		}
	}
	// Consuming the head frees budget for the tail: the scan stays ahead,
	// so a byte-bounded window still converts most reads into hits.
	if ps := pf.Stats(); ps.Hits < int64(n) {
		t.Errorf("byte-bounded scan hit only %d of %d reads: %+v", ps.Hits, 2*n, ps)
	}
}

// A byte budget smaller than any single batch must not starve the
// prefetcher: the window never shrinks below one entry, so every batch is
// still prefetched — one at a time — instead of becoming a permanent
// synchronous miss that also blocks everything behind it.
func TestPrefetcherByteBudgetSmallerThanOneBatch(t *testing.T) {
	const n = 8
	st := spilledStore(t, n)
	pf := NewPrefetcher(st, 4, 2, WithPrefetchBytes(st.spans[0].length-1))
	defer pf.Close()
	for i := 0; i < n; i++ {
		if c, _ := pf.Batch(i); c.Rows() != 4 {
			t.Fatalf("batch %d rows = %d", i, c.Rows())
		}
		pf.mu.Lock()
		if len(pf.cache) > 1 {
			t.Fatalf("after batch %d: %d entries cached, want <= 1", i, len(pf.cache))
		}
		pf.mu.Unlock()
	}
	if ps := pf.Stats(); ps.Misses != 0 {
		t.Errorf("one-at-a-time window still missed %d times: %+v", ps.Misses, ps)
	}
}

// Resident batches bypass the prefetcher counters entirely.
func TestPrefetcherResidentBypass(t *testing.T) {
	st, err := NewStore(t.TempDir(), "TOC", 1<<30) // everything resident
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	x := matrix.NewDense(2, 3)
	x.Set(0, 0, 1)
	for b := 0; b < 4; b++ {
		if err := st.Add(x, []float64{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	pf := NewPrefetcher(st, 2, 1)
	defer pf.Close()
	for i := 0; i < 4; i++ {
		pf.Batch(i)
	}
	if ps := pf.Stats(); ps.Hits != 0 || ps.Misses != 0 || ps.Prefetched != 0 {
		t.Errorf("resident reads touched the prefetcher: %+v", ps)
	}
}

// Request schedules a background read outside the window; the
// batch must then be served as a hit, and requests for resident, cached
// or out-of-range indices must be harmless no-ops.
func TestPrefetcherRequestExplicitFetch(t *testing.T) {
	const n = 12
	st := spilledStore(t, n)
	pf := NewPrefetcher(st, 2, 2) // window covers 1..2 only
	defer pf.Close()

	// Far outside the primed window: a plain access would be a miss.
	pf.Request(n - 1)
	// No-ops: duplicate of an in-flight entry, and out-of-range indices.
	pf.Request(n - 1)
	pf.Request(-1)
	pf.Request(n)

	c, _ := pf.Batch(n - 1)
	want, _ := st.Batch(n - 1)
	if !c.Decode().Equal(want.Decode()) {
		t.Fatalf("requested batch contents differ")
	}
	ps := pf.Stats()
	if ps.Misses != 0 || ps.Hits != 1 {
		t.Errorf("explicitly requested batch was not a hit: %+v", ps)
	}
}

// Close must be safe while reads are still in flight: queued background
// reads drain, consumers blocked on an in-flight entry land, and a
// concurrent scheduling path (Batch, Request) never sends on the closed
// job queues.
func TestPrefetcherCloseWithReadsInFlight(t *testing.T) {
	const n = 16
	// Slow reads so the window is still in flight when Close races in.
	st := spilledStore(t, n, WithReadBandwidth(200<<10))
	pf := NewPrefetcher(st, 8, 4)

	var wg sync.WaitGroup
	start := make(chan struct{})
	// Consumers racing Close: some will catch in-flight entries and wait
	// on them; all must return.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, _ := pf.Batch(i)
			if c == nil {
				t.Errorf("batch %d returned nil", i)
			}
		}(i)
	}
	// Requesters racing Close: after close they must be silent no-ops.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			pf.Request(i)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := pf.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	close(start)
	wg.Wait()
	// Idempotent, and still safe after everything drained.
	if err := pf.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	pf.Request(0)
}
