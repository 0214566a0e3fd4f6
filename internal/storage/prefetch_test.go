package storage

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/matrix"
	"toc/internal/ml"
	"toc/internal/testutil"
)

// recycled reads the prefetcher's count of batches Release recycled.
func recycled(pf *Prefetcher) int64 {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.recycled
}

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
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		handed = map[formats.CompressedMatrix]int{} // consumers per batch handed out
	)
	for i := 0; i < depth; i++ {
		for d := 0; d < dupes; d++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, y := pf.Batch(i)
				if c.Rows() != 4 || len(y) != 4 {
					t.Errorf("batch %d: rows=%d labels=%d", i, c.Rows(), len(y))
				}
				mu.Lock()
				handed[c]++
				mu.Unlock()
			}(i)
		}
	}
	wg.Wait()
	// A shared batch is recycled only when its last consumer releases it:
	// every release before that leaves it intact and counts nothing.
	for c, consumers := range handed {
		want := c.Decode()
		for k := 1; k < consumers; k++ {
			pf.Release(c)
		}
		if got := recycled(pf); got != 0 {
			t.Fatalf("%d batches recycled before their last consumer released", got)
		}
		if !c.Decode().Equal(want) {
			t.Fatal("a batch changed before its last consumer released it")
		}
		pf.Release(c)
		if got := recycled(pf); got != 1 {
			t.Fatalf("recycled = %d after the last of %d consumers released, want 1", got, consumers)
		}
		pf.mu.Lock()
		pf.recycled = 0
		pf.mu.Unlock()
	}
	if len(handed) < depth {
		t.Errorf("%d distinct batches handed out for %d indices", len(handed), depth)
	}
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

// Release recycles only a prefetched visit, and each at most once: a
// resident batch, a synchronous miss, a wrapper around a prefetched
// batch, a foreign value and a second release of one visit are no-ops,
// before Close and after it.
func TestPrefetcherReleaseRecyclesOnlyItsOwnVisits(t *testing.T) {
	const n = 6
	x := matrix.NewDense(4, 6)
	for i := 0; i < 4; i++ {
		x.Set(i, i, float64(i+1))
	}
	// The budget keeps exactly the first batch resident.
	st, err := NewStore(t.TempDir(), "TOC", int64(formats.MustGet("TOC")(x).CompressedSize()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for b := 0; b < n; b++ {
		if err := st.Add(x, []float64{0, 1, 0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Resident(0) || st.Resident(1) {
		t.Fatal("want batch 0 resident and the rest spilled")
	}
	pf := NewPrefetcher(st, 2, 1) // primes batches 1 and 2
	defer pf.Close()

	noop := func(what string, c formats.CompressedMatrix) {
		t.Helper()
		pf.Release(c)
		if got := recycled(pf); got != 0 {
			t.Fatalf("releasing %s recycled %d batches", what, got)
		}
	}
	resident, _ := pf.Batch(0)
	noop("a resident batch", resident)
	if !resident.Decode().Equal(x) {
		t.Fatal("releasing a resident batch changed it")
	}
	miss, _ := pf.Batch(5) // outside the window: a synchronous read
	if ps := pf.Stats(); ps.Misses != 1 {
		t.Fatalf("batch 5 was not a miss: %+v", ps)
	}
	noop("a synchronous miss", miss)
	if !miss.Decode().Equal(x) {
		t.Fatal("releasing a miss changed it")
	}
	hit, _ := pf.Batch(1)
	noop("a wrapper", struct{ formats.CompressedMatrix }{hit})
	noop("a foreign, incomparable value", struct {
		formats.CompressedMatrix
		tag []int
	}{hit, nil})
	noop("nil", nil)
	if !hit.Decode().Equal(x) {
		t.Fatal("a no-op release changed the batch")
	}
	pf.Release(hit)
	if got := recycled(pf); got != 1 {
		t.Fatalf("releasing a prefetched visit recycled %d batches, want 1", got)
	}
	pf.Release(hit)
	if got := recycled(pf); got != 1 {
		t.Fatalf("a second release recycled again: %d", got)
	}
	late, _ := pf.Batch(2)
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	pf.Release(late)
	pf.Release(late)
	if got := recycled(pf); got != 2 {
		t.Fatalf("releasing after Close recycled %d batches in all, want 2", got)
	}
}

// A visit to a fully spilled store — Batch, Grad, Release, the way every
// training loop steps — allocates next to nothing once the recycled
// memory has settled: the prefetcher's entry and its done channel, and
// not the batch, its read buffer or anything the gradient needs.
func TestSpilledVisitAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pool-hit pin cannot hold")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // one P, one pool shard
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection empties the pools mid-run
	const rows, n = 250, 16
	d, err := data.Generate("imagenet", rows*n, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(t.TempDir(), "TOC", 0) // nothing fits: every batch spills
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < n; i++ {
		x, y := d.Batch(i, rows)
		if err := st.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	pf := NewPrefetcher(st, 4, 1)
	defer pf.Close()
	m := ml.NewLogReg(d.X.Cols())
	g := make([]float64, m.NumParams())
	lap := func() {
		for i := 0; i < n; i++ {
			x, y := pf.Batch(i)
			m.Grad(x, y, g)
			pf.Release(x)
		}
	}
	lap()
	lap() // the recycled memory has met every batch once
	const laps = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < laps; k++ {
		lap()
	}
	runtime.ReadMemStats(&after)
	visits := float64(laps * n)
	mallocs := float64(after.Mallocs-before.Mallocs) / visits
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / visits
	t.Logf("%.2f allocations, %.0f B per visit", mallocs, bytes)
	if mallocs > 3 || bytes > 1024 {
		t.Errorf("a spilled visit allocates %.2f objects and %.0f B; want at most 3 and 1 KB", mallocs, bytes)
	}
	if ps := pf.Stats(); ps.Misses != 0 {
		t.Errorf("the steady state missed %d times: %+v", ps.Misses, ps)
	}
}
