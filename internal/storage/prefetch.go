package storage

import (
	"slices"
	"sync"
	"time"

	"toc/internal/formats"
)

// PrefetchStats describes how much spilled IO the prefetcher moved off the
// training loop's critical path.
type PrefetchStats struct {
	// Hits counts spilled batches that were already prefetched (complete
	// or in flight) when the consumer asked for them; Misses counts
	// spilled batches read synchronously on the critical path. Resident
	// batches count as neither.
	Hits, Misses int64
	// Prefetched counts background reads issued.
	Prefetched int64
	// Stall is the sum, over every consumer, of the time each spent
	// waiting for an in-flight prefetch to land. Consumers that wait at
	// once (concurrent workers, or callers sharing one read) each add
	// their whole wait, so Stall can exceed wall time: it is not the
	// loop's exposure to IO, the wall time during which at least one
	// consumer waited.
	Stall time.Duration
	// Errors counts background reads that exhausted the store's retry
	// policy; each is re-surfaced to the consumer that asked for the
	// batch rather than swallowed in a reader goroutine.
	Errors int64
}

// fetchJob asks a reader goroutine to load one spilled batch.
type fetchJob struct {
	idx int
	en  *entry
}

// entry is a prefetched (or in-flight) batch; c, y, buf and err are
// valid after done is closed — err non-nil means the background read
// failed permanently (a *ReadError) and the consumer must surface it.
// buf is the read buffer c aliases when c can be recycled, else nil.
// size is the batch's on-disk length, charged against the optional byte
// budget while the entry lives in the cache.
type entry struct {
	done chan struct{}
	size int64
	c    formats.CompressedMatrix
	y    []float64
	buf  *[]byte
	err  error

	// refs counts the consumers Batch handed the entry to that have not
	// released it; lent marks an entry that has been on the lent list.
	// The Prefetcher's mu guards both.
	refs int
	lent bool
}

// Prefetcher wraps a Store and reads spilled batches ahead of the training
// loop instead of on its critical path — the paper's Figure 1A IO time
// overlapped with compute. Every epoch visits batches 0..n-1 in ingest
// order, so the window is the depth indices after the consumption
// frontier, wrapping mod n into the next epoch's head; within it, spilled
// batches are kept resident or in flight. Request adds one batch outside
// the window. It implements the ml.BatchSource contract and is safe for
// concurrent Batch calls, including duplicate indices: callers racing for
// the same in-flight batch share one read.
//
// Reads are issued per shard: each of the store's spill shards has its
// own job queue and reader goroutines, so the prefetcher keeps every
// shard busy concurrently instead of funneling all reads through one
// pool that a single slow shard can clog.
//
// A prefetched batch is read for one visit, so its memory is recycled
// once that visit is over: Release(x) by each consumer Batch handed x to
// returns the batch's arrays and the read buffer it aliases for the next
// read (see Release). A caller that never releases leaves the memory to
// the garbage collector, as with any other batch.
type Prefetcher struct {
	store    *Store
	n        int // the store's batch count
	depth    int
	readers  int             // reader goroutines across all shards
	maxBytes int64           // <= 0 = unbounded; see NewPrefetcher
	jobs     []chan fetchJob // one queue per spill shard
	quit     chan struct{}   // closed by Close; interrupts in-flight retry backoffs
	wg       sync.WaitGroup

	mu sync.Mutex
	//toc:guardedby mu
	lastPos int // consumption frontier: deepest consumed index of the current lap (-1 before any)
	//toc:guardedby mu
	cache map[int]*entry
	//toc:guardedby mu
	lent []*entry // handed-out entries Release may recycle, oldest first
	//toc:guardedby mu
	recycled int64 // entries recycled by Release
	//toc:guardedby mu
	cacheBytes int64 // sum of cached/in-flight entry sizes
	//toc:guardedby mu
	stats PrefetchStats
	//toc:guardedby mu
	closed bool
}

// NewPrefetcher wraps a fully-loaded store (no further Add calls) with a
// prefetch window of depth batches served by background reader
// goroutines. readers is the total reader target; the pool is split
// across the store's spill shards with at least one reader per shard, so
// concurrent reads reach every shard. It immediately begins prefetching
// the first depth batches.
//
// maxBytes > 0 bounds the compressed bytes the prefetcher holds
// prefetched or in flight at once. The positional window depth is a raw
// batch count; on large compressed batches a deep window could otherwise
// hold many times the memory budget the store is protecting. With a byte
// budget the window extends only while the next spilled batch still fits
// — but never shrinks below one entry, so a batch larger than the whole
// budget is still prefetched (alone) rather than starved. maxBytes <= 0
// leaves the window bounded by depth alone.
func NewPrefetcher(s *Store, depth, readers int, maxBytes int64) *Prefetcher {
	n := s.NumBatches()
	if depth > n-1 {
		depth = n - 1
	}
	if depth < 0 {
		depth = 0
	}
	shards := s.Shards()
	perShard := (readers + shards - 1) / shards // ceil: never fewer total readers than requested
	if perShard < 1 {
		perShard = 1
	}
	p := &Prefetcher{
		store:    s,
		n:        n,
		depth:    depth,
		readers:  perShard * shards,
		maxBytes: maxBytes,
		jobs:     make([]chan fetchJob, shards),
		quit:     make(chan struct{}),
		lastPos:  -1,
		cache:    make(map[int]*entry, depth+1),
	}
	for sh := range p.jobs {
		p.jobs[sh] = make(chan fetchJob, depth+perShard)
		for r := 0; r < perShard; r++ {
			p.wg.Add(1)
			go p.reader(p.jobs[sh])
		}
	}
	p.mu.Lock()
	p.scheduleLocked(-1)
	p.mu.Unlock()
	return p
}

// reader drains one shard's job queue. A read that fails permanently is
// recorded on the entry instead of panicking here: the panic belongs on
// the consumer's goroutine, where the engine's worker recovers it,
// not in an anonymous reader where it would kill the process. Close's
// quit channel interrupts a retry backoff mid-sleep.
func (p *Prefetcher) reader(jobs <-chan fetchJob) {
	defer p.wg.Done()
	for j := range jobs {
		j.en.c, j.en.y, j.en.buf, j.en.err = p.store.batch(j.idx, p.quit)
		if j.en.err != nil {
			p.mu.Lock()
			p.stats.Errors++
			p.mu.Unlock()
		}
		close(j.en.done)
	}
}

// dropLocked removes a cache entry and refunds its byte charge. Must be
// called with p.mu held.
//
//toc:locked mu
func (p *Prefetcher) dropLocked(idx int, en *entry) {
	delete(p.cache, idx)
	p.cacheBytes -= en.size
}

// scheduleLocked queues background reads for the spilled batches among
// the depth indices after pos, wrapping mod n into the next epoch. The
// window additionally stops at the byte budget when one is configured.
// Must be called with p.mu held.
//
//toc:locked mu
func (p *Prefetcher) scheduleLocked(pos int) {
	if p.n == 0 || p.closed {
		return
	}
	for k := 1; k <= p.depth; k++ {
		if !p.requestLocked((pos + k) % p.n) {
			return // byte budget or shard queue exhausted; a later access re-schedules
		}
	}
}

// Request schedules a background read of one specific batch, regardless
// of its place in the window. The engines call this when their stream
// deviates from ingest order — an abandoned position's batch goes to a
// new owner — so the prefetch stream follows the actual positions rather
// than only the epoch scan. Resident, already-cached and
// in-flight batches are no-ops; like the window, an explicit request
// respects the byte budget (but never starves below one entry) and
// degrades to a synchronous read if the shard's queue is full.
func (p *Prefetcher) Request(idx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || idx < 0 || idx >= p.store.NumBatches() {
		return
	}
	p.requestLocked(idx)
}

// requestLocked queues a background read of batch idx if it is spilled,
// uncached, within the byte budget and the shard queue has room. It
// reports whether the window may keep extending (false = budget or queue
// exhausted). Must be called with p.mu held.
//
//toc:locked mu
func (p *Prefetcher) requestLocked(idx int) bool {
	if p.store.Resident(idx) {
		return true
	}
	if _, inFlight := p.cache[idx]; inFlight {
		return true
	}
	size := p.store.spans[idx].length
	// The byte budget stops the window from extending, but never below
	// one entry: a batch bigger than the whole budget must still be
	// fetchable once the cache drains, or it (and everything behind it)
	// would be a permanent synchronous miss.
	if p.maxBytes > 0 && len(p.cache) > 0 && p.cacheBytes+size > p.maxBytes {
		return false // budget reached; a later access re-schedules
	}
	en := &entry{done: make(chan struct{}), size: size}
	select {
	case p.jobs[p.store.ShardOf(idx)] <- fetchJob{idx: idx, en: en}:
		p.cache[idx] = en
		p.cacheBytes += size
		p.stats.Prefetched++
		return true
	default:
		return false // queue full; a later access re-schedules
	}
}

// advanceLocked records that batch i is being consumed and extends the
// window from the consumption frontier — not from i itself. Concurrent
// consumers finish out of order: when batches p+1 and then p are
// consumed, scheduling from p would re-request p+1, a read nobody is
// waiting for that then sits in the cache until the next lap reaches it
// (after the last lap, for good). A batch more than depth behind the
// frontier is no straggler but the start of a new lap, and moves the
// frontier back. Must be called with p.mu held.
//
//toc:locked mu
func (p *Prefetcher) advanceLocked(i int) {
	if i > p.lastPos || p.lastPos-i > p.depth {
		p.lastPos = i
	}
	p.scheduleLocked(p.lastPos)
}

// NumBatches returns the number of stored mini-batches.
func (p *Prefetcher) NumBatches() int { return p.store.NumBatches() }

// Batch returns mini-batch i, consuming its prefetched copy when one is
// ready or in flight, and advances the prefetch window past the
// consumption frontier.
//
// A completed entry is consumed (dropped from the cache) immediately; an
// in-flight entry stays cached until it lands, so concurrent Batch calls
// for the same index share the one outstanding read instead of the loser
// issuing a duplicate synchronous read and being miscounted as a miss.
// Every caller a prefetched batch is handed to counts as one consumer of
// it for Release.
func (p *Prefetcher) Batch(i int) (formats.CompressedMatrix, []float64) {
	p.mu.Lock()
	en := p.cache[i]
	inFlight := false
	if en != nil {
		p.stats.Hits++
		en.refs++
		select {
		case <-en.done:
			p.dropLocked(i, en) // consumed; re-prefetched on the next lap
		default:
			inFlight = true
		}
	} else if !p.store.Resident(i) {
		p.stats.Misses++
	}
	p.advanceLocked(i)
	p.mu.Unlock()

	if en == nil {
		return p.store.Batch(i) // resident, or a synchronous miss
	}
	var stall time.Duration
	if inFlight {
		select {
		case <-en.done: // landed between the unlock and here: no stall
		default:
			start := time.Now()
			<-en.done
			stall = time.Since(start)
		}
	}
	p.mu.Lock()
	p.stats.Stall += stall
	// First consumer to get here retires an in-flight entry; sharers that
	// arrive later find a newer entry (or none) and leave it alone.
	// Retiring frees byte budget, so the window may extend again —
	// without this, a tight budget alternates hit/miss because the next
	// batch can only be scheduled once the current one is gone.
	if p.cache[i] == en {
		p.dropLocked(i, en)
		p.scheduleLocked(p.lastPos)
	}
	if en.err == nil {
		p.lendLocked(en)
	}
	p.mu.Unlock()
	if en.err != nil {
		// Surface the background read's permanent failure on the
		// consumer's goroutine, matching Store.Batch's panic contract.
		// The entry is already out of the cache, so a later retry of
		// this index schedules a fresh read.
		panic(en.err)
	}
	return en.c, en.y
}

// lendLocked puts en on the lent list, where Release finds it, if its
// batch can be recycled and it has not been there yet. The list holds at
// most depth+readers entries, more than the consumers a full window and
// reader pool can keep busy; beyond that the oldest entry drops off, and
// its batch is left to the collector. That bounds what consumers that
// never release — or release a wrapper they made — can keep alive. Must
// be called with p.mu held.
//
//toc:locked mu
func (p *Prefetcher) lendLocked(en *entry) {
	if en.buf == nil || en.lent {
		return
	}
	en.lent = true
	if len(p.lent) >= p.depth+p.readers {
		p.lent = slices.Delete(p.lent, 0, 1)
	}
	p.lent = append(p.lent, en)
}

// Release tells the prefetcher that one consumer is done with x, a batch
// its Batch call returned, and with everything built on it. When the
// last consumer of a prefetched batch has released it, the batch's
// memory and the read buffer it aliases go back for later reads, and x
// must not be used again by anyone. The training loops call it once a
// gradient has returned (ml.Releaser).
//
// Release goes by identity: anything it did not hand out — a resident
// batch, a synchronous miss, a wrapper around a batch, a foreign value —
// is a no-op and is never recycled, and so is a batch dropped from the
// lent list (see lendLocked). Each Batch call may be matched by at most
// one Release. A second Release of a recycled batch is a no-op until a
// later read reuses its memory, and a use after release from then on; a
// second Release of a shared batch takes a sharer's count with it.
// Nothing is ever recycled twice. Safe for concurrent use, and after
// Close.
func (p *Prefetcher) Release(x formats.CompressedMatrix) {
	p.mu.Lock()
	en := p.releaseLocked(x)
	p.mu.Unlock()
	if en != nil {
		en.c.(recycler).Recycle()
		readBufs.Put(en.buf)
	}
}

// releaseLocked counts one release of x and returns its entry when that
// was the last one, taking it off the lent list. Must be called with
// p.mu held.
//
//toc:locked mu
func (p *Prefetcher) releaseLocked(x formats.CompressedMatrix) *entry {
	for k, en := range p.lent {
		if en.c != x { // a recycler is pointer-shaped: this never panics
			continue
		}
		if en.refs--; en.refs > 0 {
			return nil
		}
		p.lent = slices.Delete(p.lent, k, k+1)
		p.recycled++
		return en
	}
	return nil
}

// Stats returns a snapshot of the hit/miss counters.
func (p *Prefetcher) Stats() PrefetchStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the background readers, interrupting any reader sitting
// in a retry-backoff sleep so it returns promptly instead of serving
// out its schedule. It does not close the wrapped store.
func (p *Prefetcher) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.quit)
	for _, ch := range p.jobs {
		close(ch)
	}
	p.wg.Wait()
	return nil
}
