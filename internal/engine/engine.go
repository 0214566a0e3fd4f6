// Package engine is the concurrent mini-batch training engine: one
// position-ordered training loop (Loop, loop.go) and the front ends that
// feed it.
//
// The loop owns the model, the clock and everything that makes a run a
// trajectory — the epoch-major position stream (every epoch visits the
// batches 0..n-1 in ingest order, so position p is batch p mod n),
// release and admission, the reorder buffer, the in-order merge and
// apply, epoch-loss accounting, observers, checkpoint cadence and
// snapshot, resume validation, halt. Its one rule: positions are cut into
// steps of group consecutive positions; a position is released, and a
// gradient computed at version v admitted, when clock (resp. v) >=
// stepStart(pos) − bound; a step is applied when all its positions are
// buffered, merged in position order — never completion order — so the
// trajectory is bitwise identical for any worker count.
//
// A front end only moves parameters and gradients. Engine (this file) is
// synchronous group steps: bound 0 with group = GroupSize, so a step's
// gradients are computed concurrently on the live model, whose parameters
// are frozen until the step applies; workers left over after the group's
// slots shard the matrix kernels inside each gradient (A·M and M·A by
// panel run, bitwise identical to the sequential kernels; the vector
// kernels never shard), so GroupSize 1 still uses the whole pool on the
// serial trajectory of a neural network, and one core on a linear model.
// Async (async.go) is group 1 under a staleness bound:
// private model clones, crashed workers replaced within a restart budget,
// elastic join/leave. internal/dist is the same over RPC. The package
// also shards compression of incoming batches across the pool
// (FillStore) and sizes the spill prefetcher so out-of-core IO overlaps
// compute.
package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"toc/internal/checkpoint"
	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/ml"
	"toc/internal/storage"
)

// DefaultGroupSize is the number of mini-batch gradients merged per
// parameter update when Config.GroupSize is unset. It is deliberately
// independent of Workers so changing the worker count never changes the
// math, only the wall-clock.
const DefaultGroupSize = 8

// Config sizes the engine.
type Config struct {
	// Workers is the goroutine pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// GroupSize is the number of mini-batch gradients computed against
	// frozen parameters and merged per update step; <= 0 uses
	// DefaultGroupSize. GroupSize 1 reproduces serial ml.Train exactly.
	GroupSize int
	// Seed identifies the run: checkpoints record it and resume refuses a
	// checkpoint of another seed. Every epoch visits the batches in ingest
	// order — the paper shuffles the data once upfront (§2.1.3) — so it
	// selects no visit order.
	Seed int64

	// Checkpoint, when non-nil, snapshots the run into the writer's
	// directory so a crash (or Halt) can resume the exact trajectory.
	// The snapshot is captured between updates (workers idle, params
	// frozen) and serialized/written off the hot path by the writer's
	// background goroutine.
	Checkpoint *checkpoint.Writer
	// CheckpointEvery is the update-count cadence between snapshots;
	// <= 0 snapshots once per epoch.
	CheckpointEvery int
	// OnStep, when non-nil, observes every applied update: step is the
	// global update index from the run's origin (stable across
	// crash/resume) and loss is the update's summed mini-batch loss.
	// The identity tests compare these sequences bitwise.
	OnStep func(step int64, loss float64)
}

// Engine executes training and compression work over a bounded pool.
type Engine struct {
	workers int
	// base is the loop every TrainFrom runs: kind, seed, the configured
	// group size and the checkpoint and step hooks.
	base LoopConfig
	cur  atomic.Pointer[Loop] // the running TrainFrom's loop, for Halt
}

// defaultWorkers is the pool size when a config leaves Workers unset.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// New builds an engine from cfg.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = defaultWorkers()
	}
	g := cfg.GroupSize
	if g <= 0 {
		g = DefaultGroupSize
	}
	return &Engine{workers: w, base: LoopConfig{
		Kind: checkpoint.KindSync, Seed: cfg.Seed, Group: g,
		Checkpoint: cfg.Checkpoint, CheckpointEvery: cfg.CheckpointEvery, OnStep: cfg.OnStep,
	}}
}

// Halt asks a running Train/TrainFrom to stop after the update it is
// currently applying. The run writes a final checkpoint synchronously
// (when a Writer is configured) and returns ErrHalted. Safe to call
// from any goroutine, e.g. a signal handler.
func (e *Engine) Halt() {
	if l := e.cur.Load(); l != nil {
		l.Halt()
	}
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// GroupSize returns the configured gradients-per-update count (the
// default applied); Train additionally clamps it to the batch count.
func (e *Engine) GroupSize() int { return e.base.Group }

// KernelWorkers returns the goroutine count Train gives each gradient's
// matrix kernels when training over n batches — the pool split of the
// package doc. n <= 0 means "unclamped" (use the configured group size).
func (e *Engine) KernelWorkers(n int) int {
	group := e.base.Group
	if n > 0 && group > n {
		group = n
	}
	per := e.workers / group
	if per < 1 {
		per = 1
	}
	return per
}

// NewPrefetcher wraps a fully-loaded store with a spill prefetcher sized
// for this engine and the store's shard layout: the reader pool covers
// every spill shard (at least one reader per shard, and no fewer readers
// than the engine has workers) so sharded stores serve truly concurrent
// reads, and depth <= 0 defaults to two groups' worth of batches — deep
// enough to cover the next merge step while the current one computes.
// maxBytes > 0 additionally bounds the window by compressed bytes
// (storage.WithPrefetchBytes), so deep prefetch on large batches cannot
// outgrow the memory budget the store is protecting.
func (e *Engine) NewPrefetcher(st *storage.Store, depth int, maxBytes int64) *storage.Prefetcher {
	if depth <= 0 {
		depth = 2 * e.base.Group
	}
	return newPrefetcher(st, depth, e.workers, maxBytes)
}

func newPrefetcher(st *storage.Store, depth, workers int, maxBytes int64) *storage.Prefetcher {
	var opts []storage.PrefetchOption
	if maxBytes > 0 {
		opts = append(opts, storage.WithPrefetchBytes(maxBytes))
	}
	return storage.NewPrefetcher(st, depth, max(workers, st.Shards()), opts...)
}

// Train runs data-parallel MGD for the given epochs: per step it fans the
// next GroupSize batch gradients out over the worker pool and applies
// their deterministic merge. The result is reproducible for a fixed
// GroupSize regardless of Workers. cb may be nil.
//
// Train swallows ErrHalted, returning the partial result, and panics if
// the run failed; use TrainFrom for the error-aware form.
func (e *Engine) Train(m ml.Model, src ml.BatchSource, epochs int, lr float64, cb ml.EpochCallback) *ml.TrainResult {
	res, err := e.TrainFrom(m, src, epochs, lr, cb, nil)
	if err != nil && !errors.Is(err, ErrHalted) {
		panic(err)
	}
	return res
}

// TrainFrom is Train with crash/resume support. With resume nil it
// starts fresh; otherwise it validates that the checkpoint was taken by
// a compatible run (same kind, seed, group size, batch count,
// learning-rate bits and parameter dimension), restores the model
// parameters and the exact epoch/position/partial-loss cursor, and
// continues the trajectory: the completed run is bitwise identical to
// one that was never interrupted.
//
// The pool computes on the live model: a step's positions are released
// only once the previous step is applied and the next step only after
// this one, so the parameters are frozen while any gradient is in flight
// and no worker needs a clone.
func (e *Engine) TrainFrom(m ml.Model, src ml.BatchSource, epochs int, lr float64, cb ml.EpochCallback, resume *checkpoint.State) (*ml.TrainResult, error) {
	n := src.NumBatches()
	cfg := e.base
	cfg.Epochs, cfg.NumBatches, cfg.LR, cfg.OnEpoch, cfg.Resume = epochs, n, lr, cb, resume
	if n > 0 {
		cfg.Group = min(cfg.Group, n)
	}
	loop, err := NewLoop(cfg, m, src)
	if err != nil {
		return nil, err
	}
	e.cur.Store(loop)
	defer e.cur.Store(nil)
	// Split the pool between batch-level and kernel-level parallelism: the
	// group's in-flight gradients claim workers first, and any leftover
	// goroutines shard the matrix kernels inside each gradient (workers=8
	// with group=1 puts all eight into every A·M and M·A; a linear model
	// has neither). Sharding changes no bit, so this split never changes
	// the trajectory, only the wall-clock.
	m.SetKernelWorkers(e.KernelWorkers(n))
	var wg sync.WaitGroup
	for w := min(e.workers, cfg.Group); w > 0; w-- {
		owner := loop.Join()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok, _ := loop.Next(owner)
				if !ok {
					return // done, halted or failed: Wait below says which
				}
				x, y := src.Batch(t.Batch)
				g := loop.GradBuf()
				// Submit refuses only once the run has failed, and then the
				// next Next ends this worker.
				_ = loop.Submit(owner, t.Pos, t.Version, m.Grad(x, y, g), g)
			}
		}()
	}
	res, err := loop.Wait()
	wg.Wait()
	return res, err
}

// parallelFor calls fn(i) for every i in [0, n) from up to workers
// goroutines and returns when all calls have.
func parallelFor(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// FillStore slices the dataset into batchSize mini-batches, compresses
// them concurrently across the pool, and appends them to the store in
// order — the sharded-ingest counterpart of calling storage.Store.Add in
// a loop. Each worker materializes its dense batch copy only for the
// duration of its encode, so peak uncompressed overhead is one batch per
// worker, not one per dataset; only the compressed forms are retained
// until the in-order Add pass. The batches that will spill have their
// images written across the pool too, so the serial pass only stores
// them.
func (e *Engine) FillStore(st *storage.Store, d *data.Dataset, batchSize int) error {
	n := d.NumBatches(batchSize)
	encoded := make([]formats.CompressedMatrix, n)
	labels := make([][]float64, n)
	sizes := make([]int64, n)
	parallelFor(e.workers, n, func(i int) {
		x, y := d.Batch(i, batchSize)
		encoded[i] = st.Encode(x)
		labels[i] = y
		sizes[i] = int64(encoded[i].CompressedSize())
	})
	spills := st.Spills(sizes)
	parallelFor(e.workers, n, func(i int) {
		if spills[i] {
			encoded[i] = serialized{encoded[i], encoded[i].Serialize()}
		}
	})
	for i, c := range encoded {
		if err := st.AddCompressed(c, labels[i]); err != nil {
			return err
		}
	}
	return nil
}

// serialized is an encoded batch whose image is already written, which
// AddCompressed stores as is.
type serialized struct {
	formats.CompressedMatrix
	img []byte
}

func (s serialized) Serialize() []byte { return s.img }
