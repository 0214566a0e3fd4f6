// Package engine is the concurrent mini-batch training engine: one
// position-ordered training loop (Loop, loop.go) and the one local front
// end that feeds it (Engine, this file).
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
// Engine runs that loop for every (GroupSize, Staleness), with one pool
// of workers that is elastic and crash tolerant. At Staleness 0 the
// parameters are frozen for a whole step, so the workers share the live
// model; under a nonzero bound each computes on a private clone refreshed
// from the loop's versioned parameters, so one slow batch delays only its
// own position. Workers the in-flight positions leave over shard the
// matrix kernels inside each gradient (A·M and M·A by panel run, bitwise
// identical to the sequential kernels; the vector kernels never shard).
// internal/dist is the same loop over a wire. The package also ingests a
// dataset in one ordered pass across the pool (FillStore) and sizes the
// spill prefetcher so out-of-core IO overlaps compute.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/data"
	"toc/internal/faultpoint"
	"toc/internal/formats"
	"toc/internal/ml"
	"toc/internal/storage"
)

// DefaultGroupSize is the number of mini-batch gradients merged per
// parameter update when Config.GroupSize is unset. It is deliberately
// independent of Workers so changing the worker count never changes the
// math, only the wall-clock.
const DefaultGroupSize = 8

// StalenessUnbounded disables the staleness bound: workers free-run
// against whatever parameters are current when they start (Hogwild-style).
// Updates are still applied in position order under the loop's lock, so
// the run remains race-free; only the gradient *values* depend on timing.
const StalenessUnbounded = -1

// DefaultRestartBudget and DefaultRestartWindow are the crash-recovery
// bounds a run gets when Config leaves them zero: up to 8 worker
// replacements per trailing minute before the pool starts degrading.
const (
	DefaultRestartBudget = 8
	DefaultRestartWindow = time.Minute
)

// maxLiveWorkers caps the pool size AddWorkers can grow to; a join past
// it is clamped, not an error. It exists so a buggy elastic schedule
// cannot fork an unbounded goroutine herd.
const maxLiveWorkers = 1024

// Config sizes the engine.
type Config struct {
	// Workers is the goroutine pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// GroupSize is the number of consecutive positions whose gradients
	// are merged per update step; <= 0 uses DefaultGroupSize. GroupSize 1
	// at Staleness 0 reproduces serial ml.Train exactly.
	GroupSize int
	// Staleness bounds how many updates a gradient's parameter version
	// may trail its step and still be applied. 0 freezes the parameters
	// for the whole step; StalenessUnbounded (-1, or any negative value)
	// free-runs.
	Staleness int
	// Seed identifies the run: checkpoints record it and resume refuses a
	// checkpoint of another seed. Every epoch visits the batches in ingest
	// order — the paper shuffles the data once upfront (§2.1.3) — so it
	// selects no visit order.
	Seed int64
	// Deterministic switches a Staleness > 0 run to delayed-gradient SGD:
	// a step's gradients are computed against the oldest version the bound
	// admits, so the trajectory is a pure function of (GroupSize,
	// Staleness), bitwise reproducible for any worker count and across
	// crash/resume. Ignored when Staleness <= 0.
	Deterministic bool
	// RestartBudget bounds crash recovery: a worker panic is recovered
	// and the worker replaced as long as fewer than RestartBudget
	// replacements happened within the trailing RestartWindow. Past the
	// budget the pool degrades — the crashed worker is not replaced —
	// until no workers remain, at which point the run fails with every
	// recovered panic preserved in the returned error chain. 0 uses
	// DefaultRestartBudget; a negative value disables replacement.
	RestartBudget int
	// RestartWindow is the sliding window RestartBudget counts
	// replacements in; <= 0 uses DefaultRestartWindow.
	RestartWindow time.Duration
	// Checkpoint, when non-nil, snapshots the run between updates into the
	// writer's directory, written off the hot path, so a crash (or Halt)
	// can resume. Staleness 0 and Deterministic runs resume bitwise
	// identically; a free-running resume is merely valid.
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

// AsyncConfig exists only because the frozen benchmark/workloads.go
// spells it; item 1's benchmark PR renames its uses and deletes this line.
type AsyncConfig = Config

// NewAsync is New at GroupSize 1. It exists only because the frozen
// benchmark/workloads.go spells it; item 1's benchmark PR deletes it.
func NewAsync(cfg Config) *Engine {
	cfg.GroupSize = 1
	return New(cfg)
}

// Stats describes one training run: the loop's admission counters plus
// the pool's crash and membership accounting — recovered worker panics
// (each one's position requeued and recomputed), crashed workers replaced
// within the restart budget and those left unreplaced past it, and
// workers AddWorkers joined and RemoveWorkers retired.
type Stats struct {
	LoopStats
	WorkerPanics, Restarts, Degraded int64
	Joined, Departed                 int64
}

// Engine executes training and compression work over a bounded pool.
type Engine struct {
	workers int
	base    LoopConfig // the loop every TrainFrom runs
	// restartBudget replacements per restartWindow; see Config.
	restartBudget int
	restartWindow time.Duration

	// mu guards cur, the active TrainFrom's shared run state, through
	// which Halt, AddWorkers and RemoveWorkers reach a running pool, and
	// stats, the counters of the most recent run.
	mu sync.Mutex
	//toc:guardedby mu
	cur *run
	//toc:guardedby mu
	stats Stats
}

// New builds an engine from cfg.
func New(cfg Config) *Engine {
	w := cmp.Or(max(cfg.Workers, 0), runtime.GOMAXPROCS(0))
	g := cmp.Or(max(cfg.GroupSize, 0), DefaultGroupSize)
	rb := cmp.Or(cfg.RestartBudget, DefaultRestartBudget)
	rw := cmp.Or(max(cfg.RestartWindow, 0), DefaultRestartWindow)
	s := max(cfg.Staleness, StalenessUnbounded)
	// The window bounds how far ahead of the clock positions may be
	// released: a resource ceiling (buffered gradients) that the loop
	// further caps at a bounded run's Staleness+1.
	window := 4*w + 4
	if s >= 0 {
		window = min(window, s+1)
	}
	return &Engine{
		workers: w,
		base: LoopConfig{
			Kind: checkpoint.KindLocal, Seed: cfg.Seed, Group: g, Staleness: s,
			Deterministic: cfg.Deterministic && s > 0, Window: window,
			Checkpoint: cfg.Checkpoint, CheckpointEvery: cfg.CheckpointEvery, OnStep: cfg.OnStep,
		},
		restartBudget: max(rb, 0), restartWindow: rw,
	}
}

// Workers returns the configured (initial) pool size.
func (e *Engine) Workers() int { return e.workers }

// GroupSize returns the configured gradients-per-update count (the
// default applied); Train additionally clamps it to the batch count.
func (e *Engine) GroupSize() int { return e.base.Group }

// SetOnStep installs (or replaces) the per-update observer configured
// by Config.OnStep. It must be called between runs — the loop reads it
// once, when a run starts. Its main use is wiring an ElasticHook, which
// needs the engine to exist first.
func (e *Engine) SetOnStep(fn func(step int64, loss float64)) { e.base.OnStep = fn }

// Stats returns the counters of the most recent Train run.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// running returns the active TrainFrom's run state, nil between runs.
func (e *Engine) running() *run {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cur
}

// Halt asks a running Train/TrainFrom to stop after the update it is
// currently applying. The run writes a final checkpoint synchronously
// (when a Writer is configured) and returns ErrHalted. Safe to call
// from any goroutine, e.g. a signal handler.
func (e *Engine) Halt() {
	if r := e.running(); r != nil {
		r.loop.Halt()
	}
}

// inFlight is how many positions a run over n batches keeps released at
// once: every position of the steps the window lets start ahead of the
// clock. n <= 0 means "unclamped" (use the configured group size).
func (e *Engine) inFlight(n int) int {
	g := e.base.Group
	if n > 0 {
		g = min(g, n)
	}
	return (e.base.Window + g - 1) / g * g
}

// KernelWorkers returns the goroutine count Train gives each gradient's
// matrix kernels when training over n batches — the pool split of the
// package doc: the in-flight gradients claim workers first, and each one's
// kernels get what is left over. n <= 0 means "unclamped".
func (e *Engine) KernelWorkers(n int) int {
	return e.workers / min(e.inFlight(n), e.workers)
}

// NewPrefetcher wraps a fully-loaded store with a spill prefetcher sized
// for this engine and the store's shard layout: the reader pool covers
// every spill shard (at least one reader per shard, and no fewer readers
// than the engine has workers) so sharded stores serve truly concurrent
// reads, and depth <= 0 defaults to twice the positions a run keeps in
// flight — deep enough to cover the next step while the current one
// computes. maxBytes > 0 additionally bounds the window by compressed
// bytes (see storage.NewPrefetcher), so deep prefetch on large batches
// cannot outgrow the memory budget the store is protecting.
func (e *Engine) NewPrefetcher(st *storage.Store, depth int, maxBytes int64) *storage.Prefetcher {
	if depth <= 0 {
		depth = 2 * e.inFlight(st.NumBatches())
	}
	return storage.NewPrefetcher(st, depth, max(e.workers, st.Shards()), maxBytes)
}

// AddWorkers grows a running Train's pool by n mid-run and returns how
// many workers it added — 0 when no run is active, n <= 0, or the pool is
// at its size cap. Safe from any goroutine, including an OnStep callback;
// Staleness 0 and Deterministic trajectories do not depend on it.
func (e *Engine) AddWorkers(n int) int { return e.resize(n) }

// RemoveWorkers shrinks a running Train's pool by up to n mid-run, never
// below one worker, and returns how many it retired. A retired worker
// finishes the position it holds, so nothing is lost or recomputed.
func (e *Engine) RemoveWorkers(n int) int { return e.resize(-n) }

// resize applies a membership change to the active run: joins spawn
// immediately (capped at maxLiveWorkers); departures retire the newest
// workers, clamped so the pool keeps at least one.
func (e *Engine) resize(delta int) int {
	r := e.running()
	if delta == 0 || r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0
	}
	live := len(r.live)
	if delta > 0 {
		delta = max(0, min(delta, maxLiveWorkers-live))
		for i := 0; i < delta; i++ {
			e.spawnLocked(r)
		}
		r.stats.Joined += int64(delta)
		return delta
	}
	n := min(-delta, live-1)
	if n <= 0 {
		return 0
	}
	for _, owner := range r.live[live-n:] {
		r.loop.Retire(owner)
	}
	r.live = r.live[:live-n]
	r.stats.Departed += int64(n)
	return n
}

// run is the shared state of one TrainFrom call, kept off the Engine so
// Train stays reentrant. Membership changes and crash recovery are direct
// calls under mu; the lock order is mu, then the loop's lock.
type run struct {
	loop *Loop
	src  ml.BatchSource
	rel  ml.Releaser // src's release hook, nil if it has none
	// model is the live model when workers compute on it (Staleness 0),
	// nil when each worker clones its own.
	model ml.Model
	kw    int // kernel workers per clone
	wg    sync.WaitGroup

	mu sync.Mutex
	//toc:guardedby mu
	closed bool // the loop has finished: nothing spawns any more
	//toc:guardedby mu
	live []int // owner ids of the pool, oldest first
	//toc:guardedby mu
	chain []error // recovered worker panics, oldest first
	//toc:guardedby mu
	restarts []time.Time // replacement times inside the sliding window
	//toc:guardedby mu
	stats Stats // membership and crash counts; LoopStats folded in at the end
}

// recoverTo converts a panic escaping a worker's dispatch loop into a run
// error so Train can drain the pool and report instead of crashing the
// process mid-epoch. Worker *compute* panics never reach it: compute
// recovers those and handleCrash absorbs them under the restart budget.
func (r *run) recoverTo() {
	if p := recover(); p != nil {
		r.loop.Fail(panicError(p))
	}
}

// Train runs MGD for the given epochs: every epoch visits all batches in
// ingest order, each step merges its GroupSize gradients in position
// order into one parameter update, and updates are applied in visit order
// under the staleness bound. cb may be nil.
//
// A panic in a worker (a poisoned batch, a failed storage read, a model
// bug) does not abort the run: the worker recovers it, requeues the lost
// position, and is replaced within the configured restart budget. Only
// when the budget is exhausted and the pool has degraded to nothing does
// the run fail, returning an error that chains every recovered panic
// (errors.Is/As reach the original values).
func (e *Engine) Train(m ml.Model, src ml.BatchSource, epochs int, lr float64, cb ml.EpochCallback) (*ml.TrainResult, error) {
	return e.TrainFrom(m, src, epochs, lr, cb, nil)
}

// TrainFrom is Train with crash/resume support. With resume nil it
// starts fresh; otherwise it validates that the checkpoint was taken by
// a compatible run (same kind, seed, group size, staleness,
// delayed-gradient mode, batch count, learning-rate bits and parameter
// dimension), restores the parameters, the exact position and
// partial-loss cursor and (in Deterministic mode) the archived version
// window, and continues the trajectory: a Staleness 0 or Deterministic
// run completes bitwise identical to one that was never interrupted.
// Stats counts only the updates applied by this call.
func (e *Engine) TrainFrom(m ml.Model, src ml.BatchSource, epochs int, lr float64, cb ml.EpochCallback, resume *checkpoint.State) (*ml.TrainResult, error) {
	e.mu.Lock()
	e.stats = Stats{}
	e.mu.Unlock()
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
	r := &run{loop: loop, src: src, kw: e.KernelWorkers(n)}
	r.rel, _ = src.(ml.Releaser)
	if cfg.Staleness == 0 {
		// A step's positions are released only once the previous step is
		// applied, so the parameters are frozen while any gradient is in
		// flight and the workers share the live model.
		r.model = m
		m.SetKernelWorkers(r.kw)
	}
	// Publish the run so Halt/AddWorkers/RemoveWorkers can reach it; torn
	// down before Train returns so late calls see no run and no-op.
	e.mu.Lock()
	e.cur = r
	e.mu.Unlock()

	r.mu.Lock()
	for w := 0; w < e.workers; w++ {
		e.spawnLocked(r)
	}
	r.mu.Unlock()

	res, err := loop.Wait()
	// Once closed is set nothing spawns, so no wg.Add races the Wait.
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.wg.Wait()

	r.mu.Lock()
	stats := r.stats
	r.mu.Unlock()
	stats.LoopStats = loop.Stats()
	e.mu.Lock()
	e.cur, e.stats = nil, stats
	e.mu.Unlock()
	return res, err
}

// worker is one pool member: its loop owner id, the model it computes
// on, and — when that is a private clone — the buffer its parameters are
// refreshed through.
type worker struct {
	model ml.Model
	owner int
	snap  []float64 // nil on the live model
}

// spawnLocked adds one worker goroutine to a run's pool, training as a
// fresh owner on the live model or on a clone of it. A worker whose
// compute panics runs handleCrash before it exits.
//
//toc:locked mu
func (e *Engine) spawnLocked(r *run) {
	if r.closed {
		return
	}
	w := &worker{model: r.model}
	if w.model == nil {
		w.model = r.loop.Clone()
		w.model.SetKernelWorkers(r.kw)
		w.snap = make([]float64, w.model.NumParams())
	}
	w.owner = r.loop.Join()
	r.live = append(r.live, w.owner)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.recoverTo()
		for {
			t, ok, _ := r.loop.Next(w.owner)
			if !ok {
				return // done, halted, failed — or retired by RemoveWorkers
			}
			// A crashing worker never loops on a poisoned state: it
			// retires, and handleCrash decides whether a replacement spawns.
			if p, crashed := r.compute(w, t); crashed {
				e.handleCrash(r, w.owner, p)
				return
			}
		}
	}()
}

// compute runs one position and submits its gradient, recovering any
// panic — a poisoned batch, a storage read that exhausted its retries, an
// injected engine.worker fault — instead of killing the run.
func (r *run) compute(w *worker, t Task) (val any, crashed bool) {
	defer func() {
		if p := recover(); p != nil {
			val, crashed = p, true
		}
	}()
	// The canonical worker-kill injection point: chaos tests arm it to
	// fell a worker at an exact task count.
	if err := faultpoint.Err("engine.worker"); err != nil {
		panic(err)
	}
	x, y := r.src.Batch(t.Batch)
	version := t.Version
	if w.snap != nil {
		// Refresh the clone after the batch is in hand, so a slow read
		// costs the gradient no freshness.
		var ok bool
		if version, ok = r.loop.Params(t.Pos, w.snap); !ok {
			r.release(x)
			return nil, false
		}
		w.model.SetParams(w.snap)
	}
	g := r.loop.GradBuf()
	loss := w.model.Grad(x, y, g)
	r.release(x)
	// Submit refuses only once the run has failed (this version is always
	// admissible), and then the next Next ends this worker.
	_ = r.loop.Submit(w.owner, t.Pos, version, loss, g)
	return nil, false
}

// release hands x back to the source once the worker is done with it.
func (r *run) release(x formats.CompressedMatrix) {
	if r.rel != nil {
		r.rel.Release(x)
	}
}

// handleCrash absorbs one worker panic on the crashed worker's goroutine:
// the lost position is requeued for the rest of the pool, and the worker
// is replaced if the sliding-window budget allows (degrading the pool
// otherwise). When the pool is exhausted it fails the run.
//
//toc:timing
func (e *Engine) handleCrash(r *run, owner int, val any) {
	r.loop.Abandon(owner)
	r.mu.Lock()
	defer r.mu.Unlock()
	// Replacement times are appended under mu, so they are in order.
	now := time.Now()
	for len(r.restarts) > 0 && now.Sub(r.restarts[0]) >= e.restartWindow {
		r.restarts = r.restarts[1:]
	}
	r.stats.WorkerPanics++
	r.chain = append(r.chain, panicError(val))
	i := slices.Index(r.live, owner)
	member := i >= 0
	if member {
		r.live = slices.Delete(r.live, i, i+1)
	}
	// A worker RemoveWorkers already retired is no longer the pool's to
	// replace or to lose.
	replace := member && len(r.restarts) < e.restartBudget
	if replace {
		r.stats.Restarts++
		r.restarts = append(r.restarts, now)
		e.spawnLocked(r)
	} else if member {
		r.stats.Degraded++
	}
	if !replace && len(r.live) == 0 {
		r.loop.Fail(fmt.Errorf("engine: worker pool exhausted after %d worker panics (restart budget %d per %v): %w",
			len(r.chain), e.restartBudget, e.restartWindow, errors.Join(r.chain...)))
	}
}

// panicError converts a recovered worker panic value into an error,
// preserving error panics (an injected faultpoint.Error, a
// storage.ReadError) for errors.Is/As inspection of the final chain.
func panicError(v any) error {
	if err, ok := v.(error); ok {
		return fmt.Errorf("engine: worker panicked: %w", err)
	}
	return fmt.Errorf("engine: worker panicked: %v", v)
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

// fillWindow is how many batches per worker FillStore encodes ahead of
// the next one it adds.
const fillWindow = 4

// FillStore slices the dataset into batchSize mini-batches and adds them
// to the store in order, as storage.Store.Add in a loop would. Workers
// encode batches in index order, at most fillWindow per worker ahead of
// the next batch to add, and the worker of that batch adds it and every
// encoded one after it through AddCompressed, one goroutine at a time.
// The first add error stops the pass and is returned.
func (e *Engine) FillStore(st *storage.Store, d *data.Dataset, batchSize int) error {
	n, window := d.NumBatches(batchSize), fillWindow*e.workers
	ring := make([]formats.CompressedMatrix, window) // batch i at i%window, nil until encoded
	var mu sync.Mutex
	room := sync.NewCond(&mu) // signaled as next advances
	next := 0                 // the next batch to add
	var err error
	parallelFor(e.workers, n, func(i int) {
		mu.Lock()
		for i >= next+window && err == nil {
			room.Wait()
		}
		stop := err != nil
		mu.Unlock()
		if stop {
			return
		}
		x, _ := d.Batch(i, batchSize)
		c := st.Encode(x)
		mu.Lock()
		ring[i%window] = c
		// i <= next only for the worker of batch next: it adds it and
		// every encoded batch after it; the others leave theirs to it.
		for ; i <= next && err == nil && ring[next%window] != nil; next++ {
			c = ring[next%window]
			ring[next%window] = nil
			_, y := d.Batch(next, batchSize)
			mu.Unlock()
			addErr := st.AddCompressed(c, y)
			mu.Lock()
			err = addErr
			room.Broadcast()
		}
		mu.Unlock()
	})
	return err
}
