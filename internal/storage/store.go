// Package storage provides the memory-budgeted mini-batch store that
// reproduces the paper's out-of-core regime (Figure 1A/1D, Figure 9,
// Tables 6–7): compressed mini-batches are kept in memory until a budget
// is exhausted; the rest spill to disk and are re-read — real file IO
// plus wire decoding — every time an epoch visits them.
//
// Which schemes fit inside the budget is exactly what separates the
// paper's fast and slow configurations: at 15 GB RAM only TOC, Gzip and
// Snappy kept Imagenet25m resident, and of those only TOC executes matrix
// operations without decompression.
//
// The spill side is sharded: batches spread over N spill files
// (WithShards), optionally across N directories modeling N devices
// (WithShardDirs), with placement balancing bytes across shards. A batch
// stays resident iff it fits the remaining budget when it arrives, and
// reads are paced by one simulated disk model (disk.go): read bandwidth
// is an aggregate cap per directory, the access latency serializes per
// shard, and more devices means more directories.
package storage

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"toc/internal/faultpoint"
	"toc/internal/formats"
	"toc/internal/matrix"
)

// spanTable is the CRC-32C polynomial table guarding every spilled
// span; the same polynomial the checkpoint and manifest formats use.
var spanTable = crc32.MakeTable(crc32.Castagnoli)

// Stats describes a store's layout and accumulated IO activity.
type Stats struct {
	// ResidentBatches and SpilledBatches partition the stored batches.
	ResidentBatches, SpilledBatches int
	// ResidentBytes is the compressed size held in memory;
	// SpilledBytes is the compressed size on disk.
	ResidentBytes, SpilledBytes int64
	// Reads counts spilled-batch loads; BytesRead totals their sizes.
	Reads     int64
	BytesRead int64
	// ReadTime accumulates wall-clock time spent reading and decoding
	// spilled batches — the paper's "IO time" of Figure 1A. It includes
	// retry backoff: a flaky disk's stalls are IO time too.
	ReadTime time.Duration
	// Retries counts spilled-read attempts beyond each read's first —
	// transient faults absorbed by the retry loop.
	Retries int64
	// FailedReads counts reads that exhausted the retry policy and
	// surfaced a ReadError.
	FailedReads int64
}

// span locates one spilled batch inside a shard's spill file. crc is
// the CRC-32C of the serialized bytes, computed at spill time and
// verified on every read: a flipped bit on disk fails loudly instead of
// feeding the wire decoder silently wrong data.
type span struct {
	shard  int
	off    int64
	length int64
	crc    uint32
}

// shard is one spill file.
type shard struct {
	dir   string
	file  *os.File // created lazily on the shard's first spill
	wpos  int64
	bytes int64
}

// Store holds a dataset's compressed mini-batches under a memory budget.
// It implements the ml.BatchSource contract. Once loading is done (no more
// Add calls), Batch is safe to call from multiple goroutines — the layout
// slices are then read-only, file reads use ReadAt, the IO counters are
// mutex-guarded and the disk model is safe for concurrent use — which is
// what the engine's data-parallel workers and the async Prefetcher rely
// on.
type Store struct {
	method string
	codec  formats.Codec
	budget int64

	shards []*shard
	disk   *disk

	resident []formats.CompressedMatrix // nil for spilled batches
	labels   [][]float64
	spans    []span  // zero length for resident batches
	sizes    []int64 // compressed size per batch, as the manifest records it

	// resSpans holds the backup spans WriteManifest appends for
	// resident batches so a restarted process can rebuild them from the
	// shard files. They are accounted separately from the spill spans —
	// a resident batch's backup is crash insurance, not a spill, so it
	// never shows up in the spill stats or the placement balance.
	resSpans []span

	// persist marks a store whose shard files back a written manifest
	// (WriteManifest, or a store reopened by OpenStore): Close keeps the
	// files on disk so a restarted process can recover from them.
	persist bool

	// retry bounds the spilled-read retry loop; immutable after
	// construction.
	retry RetryPolicy

	// mu guards the stats and the backoff jitter under concurrent Batch
	// calls; the disk model synchronizes itself.
	mu sync.Mutex
	//toc:guardedby mu
	stats Stats
	//toc:guardedby mu
	jitter *rand.Rand // seeded backoff-jitter stream (see RetryPolicy)
}

// storeConfig collects NewStore and OpenStore options.
type storeConfig struct {
	shards    int
	dirs      []string
	bandwidth int64
	latency   time.Duration
	retry     RetryPolicy
}

// resolveOptions applies opts over the defaults.
func resolveOptions(opts []Option) storeConfig {
	cfg := storeConfig{retry: DefaultRetryPolicy()}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.retry.Attempts = max(cfg.retry.Attempts, 1)
	return cfg
}

// newStore is the construction NewStore and OpenStore share: a store for
// method over shards, with the disk model and retry policy of cfg.
func (cfg storeConfig) newStore(method string, codec formats.Codec, budget int64, shards []*shard) *Store {
	return &Store{
		method: method,
		codec:  codec,
		budget: budget,
		shards: shards,
		disk:   newDisk(shards, cfg.bandwidth, cfg.latency),
		retry:  cfg.retry,
		jitter: rand.New(rand.NewSource(cfg.retry.Seed)),
	}
}

// Option configures a Store at construction.
type Option func(*storeConfig)

// WithShards spreads the spill across n files; placement balances bytes
// across them and the Prefetcher reads distinct shards concurrently.
// The default (n <= 0) is one shard per WithShardDirs directory, or a
// single file — the historical layout. An explicit count wins over the
// directory count.
func WithShards(n int) Option { return func(c *storeConfig) { c.shards = n } }

// WithShardDirs places the spill shards round-robin across the given
// directories, modeling distinct devices: each directory gets its own
// bandwidth budget, so total bandwidth is the configured rate times the
// number of distinct directories in use.
// Without WithShards the shard count defaults to len(dirs).
func WithShardDirs(dirs ...string) Option {
	return func(c *storeConfig) { c.dirs = append([]string(nil), dirs...) }
}

// WithReadBandwidth simulates storage devices of the given read
// bandwidth (bytes per second). The paper's large datasets live on
// actual cloud disks (~100-200 MB/s); at laptop scale the OS page cache
// would otherwise hide the IO cost this repository needs to reproduce.
// Zero disables throttling. The bandwidth is an aggregate cap per device
// (directory): concurrent readers share it, they do not multiply it.
func WithReadBandwidth(bytesPerSec int64) Option {
	return func(c *storeConfig) { c.bandwidth = bytesPerSec }
}

// WithAccessLatency adds a fixed per-read latency to every spilled
// read — the seek/rotation cost of a spindle, or a cloud store's
// request overhead. It serializes within a shard and overlaps across
// shards.
func WithAccessLatency(d time.Duration) Option {
	return func(c *storeConfig) { c.latency = d }
}

// NewStore creates a store for the given scheme. budgetBytes bounds the
// compressed bytes kept resident; batches beyond it spill to temp files
// under dir ("" means the OS temp dir). A budget <= 0 spills everything.
//
// Spill files are created lazily on each shard's first spill, so a store
// whose batches all fit the budget holds no file handle and leaks nothing
// even if Close is never called.
func NewStore(dir, method string, budgetBytes int64, opts ...Option) (*Store, error) {
	codec, ok := formats.GetCodec(method)
	if !ok {
		return nil, fmt.Errorf("storage: unknown method %q", method)
	}
	cfg := resolveOptions(opts)
	if len(cfg.dirs) == 0 {
		cfg.dirs = []string{dir}
	}
	// An explicit WithShards count wins (shards round-robin over the
	// dirs); otherwise one shard per directory, defaulting to one.
	if cfg.shards <= 0 {
		cfg.shards = len(cfg.dirs)
	}
	shards := make([]*shard, cfg.shards)
	for i := range shards {
		d := cfg.dirs[i%len(cfg.dirs)]
		if d != "" {
			d = filepath.Clean(d)
		}
		shards[i] = &shard{dir: d}
	}
	return cfg.newStore(method, codec, budgetBytes, shards), nil
}

// Shards returns the number of spill shards.
func (s *Store) Shards() int { return len(s.shards) }

// ShardBytes returns the spilled bytes placed on each shard — the
// balance the placement maintains. Call after ingest.
func (s *Store) ShardBytes() []int64 {
	out := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.bytes
	}
	return out
}

// Encode compresses a dense mini-batch with this store's codec; it is the
// formats.Encoder the engine's parallel ingest shards across workers.
func (s *Store) Encode(x *matrix.Dense) formats.CompressedMatrix { return s.codec.Encode(x) }

// Add encodes a dense mini-batch and places it in memory or on disk
// according to the remaining budget.
func (s *Store) Add(x *matrix.Dense, y []float64) error {
	if x.Rows() != len(y) {
		return fmt.Errorf("storage: batch has %d rows but %d labels", x.Rows(), len(y))
	}
	return s.AddCompressed(s.codec.Encode(x), y)
}

// AddCompressed places an already-encoded mini-batch (produced by this
// store's Encode, possibly on another goroutine) in memory or on disk: it
// stays resident iff it fits the budget left by the batches before it,
// and a resident batch is never displaced. Add calls must not race with
// Batch.
func (s *Store) AddCompressed(c formats.CompressedMatrix, y []float64) error {
	if c.Rows() != len(y) {
		return fmt.Errorf("storage: batch has %d rows but %d labels", c.Rows(), len(y))
	}
	size := int64(c.CompressedSize())
	s.mu.Lock()
	fits := s.fits(s.stats.ResidentBytes, size)
	s.mu.Unlock()
	if fits {
		s.labels = append(s.labels, append([]float64(nil), y...))
		s.resident = append(s.resident, c)
		s.spans = append(s.spans, span{})
		s.sizes = append(s.sizes, size)
		s.mu.Lock()
		s.stats.ResidentBatches++
		s.stats.ResidentBytes += size
		s.mu.Unlock()
		return nil
	}
	sp, err := s.spill(c.Serialize())
	if err != nil {
		return err
	}
	s.labels = append(s.labels, append([]float64(nil), y...))
	s.resident = append(s.resident, nil)
	s.spans = append(s.spans, sp)
	s.sizes = append(s.sizes, size)
	s.mu.Lock()
	s.stats.SpilledBatches++
	s.stats.SpilledBytes += sp.length
	s.mu.Unlock()
	return nil
}

// Spills reports which of the next len(sizes) batches, added in order
// with these compressed sizes, AddCompressed would spill — so that a
// caller can write their images ahead, concurrently.
func (s *Store) Spills(sizes []int64) []bool {
	s.mu.Lock()
	used := s.stats.ResidentBytes
	s.mu.Unlock()
	out := make([]bool, len(sizes))
	for i, size := range sizes {
		if s.fits(used, size) {
			used += size
		} else {
			out[i] = true
		}
	}
	return out
}

// fits is the residency rule: a batch of size bytes stays resident iff
// it fits beside the used bytes of the resident batches before it.
func (s *Store) fits(used, size int64) bool { return used+size <= s.budget }

// spill writes one serialized batch to the least-loaded shard (fewest
// spilled bytes; ties to the lowest index), creating its file lazily.
func (s *Store) spill(img []byte) (span, error) {
	best := 0
	for i, sh := range s.shards {
		if sh.bytes < s.shards[best].bytes {
			best = i
		}
	}
	sp, err := s.writeSpan(best, img)
	if err != nil {
		return span{}, err
	}
	s.shards[best].bytes += sp.length
	return sp, nil
}

// writeSpan appends one serialized batch image to shard idx's file
// (created lazily) and returns its CRC-tagged span. It advances wpos
// but not the spill-balance accounting — spill() charges that, while
// WriteManifest's resident backups deliberately do not.
//
// When the storage.spill.mid faultpoint is armed the write is split in
// two so an injected crash lands between the halves, leaving a torn
// span on disk the way a real mid-write kill would.
func (s *Store) writeSpan(idx int, img []byte) (span, error) {
	sh := s.shards[idx]
	if sh.file == nil {
		f, err := os.CreateTemp(sh.dir, "toc-spill-"+filepath.Base(s.method)+"-*.bin")
		if err != nil {
			return span{}, fmt.Errorf("storage: create spill file: %w", err)
		}
		sh.file = f
	}
	if faultpoint.Armed("storage.spill.mid") && len(img) > 1 {
		half := len(img) / 2
		if _, err := sh.file.WriteAt(img[:half], sh.wpos); err != nil {
			return span{}, fmt.Errorf("storage: spill write: %w", err)
		}
		faultpoint.Hit("storage.spill.mid")
		if _, err := sh.file.WriteAt(img[half:], sh.wpos+int64(half)); err != nil {
			return span{}, fmt.Errorf("storage: spill write: %w", err)
		}
	} else if _, err := sh.file.WriteAt(img, sh.wpos); err != nil {
		return span{}, fmt.Errorf("storage: spill write: %w", err)
	}
	sp := span{shard: idx, off: sh.wpos, length: int64(len(img)), crc: crc32.Checksum(img, spanTable)}
	sh.wpos += int64(len(img))
	return sp, nil
}

// NumBatches returns the number of stored mini-batches.
func (s *Store) NumBatches() int { return len(s.resident) }

// Resident reports whether batch i is held in memory (a Batch call for it
// incurs no IO). The Prefetcher uses this to schedule only spilled reads.
func (s *Store) Resident(i int) bool { return s.resident[i] != nil }

// ShardOf returns the spill shard holding batch i, or -1 if it is
// resident. The Prefetcher routes its per-shard readers with it.
func (s *Store) ShardOf(i int) int {
	if s.resident[i] != nil {
		return -1
	}
	return s.spans[i].shard
}

// Batch returns mini-batch i, reading and decoding it from its spill
// shard if it is not resident. A read that still fails after the
// store's retry policy is exhausted panics with the typed *ReadError —
// the historical loud-failure contract for callers that treat disk
// corruption as a programming/environment error. Use TryBatch to
// observe the failure as an error instead. Safe for concurrent use once
// loading is done. A spilled batch it returns is the caller's, and is
// left to the garbage collector; only the Prefetcher recycles reads.
func (s *Store) Batch(i int) (formats.CompressedMatrix, []float64) {
	c, y, _, err := s.batch(i, nil)
	if err != nil {
		panic(err)
	}
	return c, y
}

// TryBatch is Batch with the failure surfaced as a typed error: a read
// that exhausts the retry policy returns a *ReadError (wrapping the
// last attempt's cause) instead of panicking.
func (s *Store) TryBatch(i int) (formats.CompressedMatrix, []float64, error) {
	c, y, _, err := s.batch(i, nil)
	return c, y, err
}

// recycler is a decoded batch that can hand its memory back for a later
// read: core.Batch's Recycle, which formats.TOC carries. Once it has, the
// read buffer the batch aliases is free as well. Both implementations
// are pointer-shaped, so batches compare by identity.
type recycler interface{ Recycle() }

// readBufs holds spilled-read buffers for reuse. A buffer goes back when
// nothing aliases it: at once when its read fails, and with the batch
// decoded from it when that batch is recycled (Prefetcher.Release).
var readBufs sync.Pool

// readBuf returns a buffer of at least n bytes from readBufs. One that is
// too small is replaced by one of the capacity its allocation holds
// anyway — whole pages, for a batch's image — which lets it take a
// slightly longer span next time.
func readBuf(n int) *[]byte {
	bp, _ := readBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < n {
		*bp = append([]byte(nil), make([]byte, n)...)
	}
	return bp
}

// batch loads mini-batch i, retrying transient spilled-read failures
// under the store's RetryPolicy with seeded exponential backoff. cancel
// (may be nil) interrupts a backoff sleep — the Prefetcher closes it so
// its readers do not serve out a long retry schedule after Close. For a
// spilled batch that can be recycled it also returns the read buffer the
// batch aliases; otherwise that result is nil, and the buffer is the
// collector's.
func (s *Store) batch(i int, cancel <-chan struct{}) (formats.CompressedMatrix, []float64, *[]byte, error) {
	if c := s.resident[i]; c != nil {
		return c, s.labels[i], nil, nil
	}
	start := time.Now()
	sp := s.spans[i]
	var last error
	attempts := 0
	for attempt := 1; attempt <= s.retry.Attempts; attempt++ {
		attempts = attempt
		c, buf, err := s.readSpilled(i)
		if err == nil {
			s.mu.Lock()
			s.stats.Reads++
			s.stats.BytesRead += sp.length
			s.stats.ReadTime += time.Since(start)
			s.mu.Unlock()
			return c, s.labels[i], buf, nil
		}
		last = err
		if attempt == s.retry.Attempts {
			break
		}
		s.mu.Lock()
		s.stats.Retries++
		d := s.backoffLocked(attempt)
		s.mu.Unlock()
		if !sleepOrCancel(d, cancel) {
			last = fmt.Errorf("%w while retrying: %w", ErrReadCanceled, last)
			break
		}
	}
	s.mu.Lock()
	s.stats.FailedReads++
	s.stats.ReadTime += time.Since(start)
	s.mu.Unlock()
	return nil, nil, nil, &ReadError{Batch: i, Shard: sp.shard, Attempts: attempts, Err: last}
}

// readSpilled performs one attempt at reading and decoding spilled
// batch i, paced by the disk model: the read is reserved up front, done
// for real, and then held until its simulated completion. An unthrottled
// store reserves nothing and never sleeps. Any failure — a short or
// errored ReadAt, a CRC mismatch, a decode error, or an armed
// storage.read.* faultpoint — is returned for the retry loop in batch
// to absorb or surface. The bytes are read into a buffer from readBufs,
// which goes back on a failure; on success it is returned when the
// decoded batch aliases it and can be recycled, and nil otherwise.
func (s *Store) readSpilled(i int) (c formats.CompressedMatrix, bp *[]byte, err error) {
	sp := s.spans[i]
	done := s.disk.reserve(time.Now(), sp.shard, sp.length)
	bp = readBuf(int(sp.length))
	defer func() {
		if err != nil {
			readBufs.Put(bp) // nothing decoded from it survives
		}
	}()
	buf := (*bp)[:sp.length:sp.length]
	// storage.read.error models a transient device-level read fault (an
	// EIO a re-read clears). It sits in front of the real read so the
	// retry loop sees exactly what a flaky disk produces.
	if err := faultpoint.Err("storage.read.error"); err != nil {
		return nil, nil, fmt.Errorf("storage: read spilled batch %d: %w", i, err)
	}
	if _, err := s.shards[sp.shard].file.ReadAt(buf, sp.off); err != nil {
		return nil, nil, fmt.Errorf("storage: read spilled batch %d: %w", i, err)
	}
	if wait := time.Until(done); wait > 0 {
		time.Sleep(wait)
	}
	got := crc32.Checksum(buf, spanTable)
	if err := faultpoint.Err("storage.read.crc"); err != nil {
		// Simulated bit flip: corrupt the computed checksum so the real
		// CRC rejection below fires, exercising the same path a torn or
		// rotted span takes.
		got = ^got
	}
	if got != sp.crc {
		return nil, nil, fmt.Errorf("storage: spilled batch %d failed CRC (stored %08x, read %08x): corrupt shard file", i, sp.crc, got)
	}
	if c, err = s.codec.Decode(buf); err != nil {
		return nil, nil, fmt.Errorf("storage: decode spilled batch %d: %w", i, err)
	}
	if _, ok := c.(recycler); !ok {
		return c, nil, nil // its decoder may alias buf: the buffer is the collector's
	}
	return c, bp, nil
}

// Stats returns a snapshot of layout and IO counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TotalCompressedBytes returns resident + spilled compressed size.
func (s *Store) TotalCompressedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.ResidentBytes + s.stats.SpilledBytes
}

// Spilled reports whether any batch lives on disk.
func (s *Store) Spilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.SpilledBatches > 0
}

// Close closes every shard's spill file; a fully-resident store has
// none and closes trivially. Stores without a written manifest remove
// their files (spill data is worthless without the layout); once
// WriteManifest has persisted the layout — or the store was reopened by
// OpenStore — the files are kept so a restarted process can recover.
func (s *Store) Close() error {
	var firstErr error
	for _, sh := range s.shards {
		if sh.file == nil {
			continue
		}
		name := sh.file.Name()
		if err := sh.file.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if !s.persist {
			if err := os.Remove(name); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.file = nil
	}
	return firstErr
}
