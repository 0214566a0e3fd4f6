package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/data"
	"toc/internal/faultpoint"
	"toc/internal/formats"
	"toc/internal/ml"
	"toc/internal/storage"
)

// Async is the bounded-staleness front end of Loop: an elastic,
// crash-tolerant pool of workers, each computing on a private model clone refreshed from
// the loop's versioned parameters, so one slow batch (a spill miss, a
// skewed shard, a cold decode) delays only its own position's update.
// Staleness 0 is the serial chain — bitwise the synchronous engine at
// GroupSize 1 and serial ml.Train, for any worker count;
// StalenessUnbounded free-runs Hogwild-style.
type Async struct {
	workers int
	// base is the loop every TrainFrom runs: kind, seed, staleness,
	// delayed-gradient mode, window and the checkpoint and step hooks.
	base LoopConfig

	// restartBudget and restartWindow bound crash recovery: a worker
	// panic is recovered and the worker replaced as long as fewer than
	// restartBudget replacements happened within the trailing
	// restartWindow; past the budget the pool degrades instead (the
	// crashed worker is not replaced) until no workers remain, at which
	// point the run fails with the accumulated panic chain. A budget of
	// 0 disables replacement entirely: every panic degrades.
	restartBudget int
	restartWindow time.Duration

	// runMu guards cur, the active TrainFrom's shared run state; Halt,
	// AddWorkers and RemoveWorkers reach a running pool through it.
	runMu sync.Mutex
	//toc:guardedby runMu
	cur *asyncRun

	statsMu sync.Mutex
	//toc:guardedby statsMu
	stats AsyncStats
}

// StalenessUnbounded disables the staleness bound: workers free-run
// against whatever parameters are current when they start (Hogwild-style).
// Updates are still applied in position order under the loop's lock, so
// the run remains race-free; only the gradient *values* depend on timing.
const StalenessUnbounded = -1

// DefaultRestartBudget and DefaultRestartWindow are the crash-recovery
// bounds a run gets when AsyncConfig leaves them zero: up to 8 worker
// replacements per trailing minute before the pool starts degrading.
const (
	DefaultRestartBudget = 8
	DefaultRestartWindow = time.Minute
)

// maxLiveWorkers caps the pool size AddWorkers can grow to; a join past
// it is clamped, not an error. It exists so a buggy elastic schedule
// cannot fork an unbounded goroutine herd.
const maxLiveWorkers = 1024

// AsyncConfig sizes the asynchronous engine.
type AsyncConfig struct {
	// Workers is the goroutine pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Staleness bounds how many parameter updates a gradient's snapshot
	// may miss and still be applied. 0 reproduces the synchronous
	// GroupSize-1 trajectory bitwise; StalenessUnbounded (-1, or any
	// negative value) free-runs.
	Staleness int
	// Seed identifies the run, as Config.Seed does.
	Seed int64

	// Deterministic switches a bounded Staleness > 0 run to delayed-
	// gradient SGD: the gradient for position p is always computed
	// against the archived parameters of version max(0, p−Staleness) —
	// the oldest version the staleness bound admits — instead of
	// whatever snapshot is current when a worker picks p up. Every
	// gradient still respects the bound, but the trajectory becomes a
	// pure function of Staleness, bitwise reproducible for any
	// worker count and across crash/resume. Ignored when Staleness <= 0
	// (0 is already deterministic, unbounded has no defined delay).
	Deterministic bool

	// RestartBudget bounds crash recovery: a worker panic is recovered
	// and the worker replaced as long as fewer than RestartBudget
	// replacements happened within the trailing RestartWindow. Past the
	// budget the pool degrades — the crashed worker is not replaced —
	// until no workers remain, at which point the run fails with every
	// recovered panic preserved in the returned error chain. 0 uses
	// DefaultRestartBudget; a negative value disables replacement (every
	// panic degrades the pool).
	RestartBudget int
	// RestartWindow is the sliding window RestartBudget counts
	// replacements in; <= 0 uses DefaultRestartWindow.
	RestartWindow time.Duration

	// Checkpoint, CheckpointEvery and OnStep mirror Config. Only
	// Deterministic (or Staleness 0) runs resume bitwise identically; a
	// free-running resume is merely valid.
	Checkpoint *checkpoint.Writer
	// CheckpointEvery is the update-count cadence; <= 0 snapshots once
	// per epoch.
	CheckpointEvery int
	// OnStep observes every applied update with its global position
	// (stable across crash/resume) and admitted mini-batch loss.
	OnStep func(step int64, loss float64)
}

// AsyncStats describes one asynchronous training run: the loop's
// admission counters plus the pool's membership and crash accounting.
type AsyncStats struct {
	LoopStats
	// WorkerPanics counts recovered worker panics; each one's position was
	// requeued and recomputed.
	WorkerPanics int64
	// Restarts counts crashed workers replaced within the restart budget.
	Restarts int64
	// Degraded counts crashed workers not replaced because the budget was
	// exhausted — permanent pool shrinkage.
	Degraded int64
	// Joined and Departed count mid-run membership changes: workers
	// added by AddWorkers and workers retired by RemoveWorkers.
	Joined, Departed int64
}

// NewAsync builds an asynchronous bounded-staleness engine from cfg.
func NewAsync(cfg AsyncConfig) *Async {
	w := cfg.Workers
	if w <= 0 {
		w = defaultWorkers()
	}
	rb := cfg.RestartBudget
	if rb == 0 {
		rb = DefaultRestartBudget
	}
	rw := cfg.RestartWindow
	if rw <= 0 {
		rw = DefaultRestartWindow
	}
	s := max(cfg.Staleness, StalenessUnbounded)
	// The window bounds how many positions may be released but not yet
	// applied: the staleness window when one is configured, and a
	// resource ceiling (buffered gradients) either way.
	window := 4*w + 4
	if s >= 0 {
		window = min(window, s+1)
	}
	return &Async{
		workers: w,
		base: LoopConfig{
			Kind: checkpoint.KindAsync, Seed: cfg.Seed, Staleness: s,
			Deterministic: cfg.Deterministic && s > 0, Window: window,
			Checkpoint: cfg.Checkpoint, CheckpointEvery: cfg.CheckpointEvery, OnStep: cfg.OnStep,
		},
		restartBudget: max(rb, 0), restartWindow: rw,
	}
}

// Workers returns the configured (initial) pool size.
func (a *Async) Workers() int { return a.workers }

// Staleness returns the configured bound (StalenessUnbounded = none).
func (a *Async) Staleness() int { return a.base.Staleness }

// Stats returns the counters of the most recent Train run.
func (a *Async) Stats() AsyncStats {
	a.statsMu.Lock()
	defer a.statsMu.Unlock()
	return a.stats
}

// running returns the active TrainFrom's run state, nil between runs.
func (a *Async) running() *asyncRun {
	a.runMu.Lock()
	defer a.runMu.Unlock()
	return a.cur
}

// Halt asks a running Train/TrainFrom to stop after the update being
// applied: a final checkpoint is written synchronously (when a Writer is
// configured) and the run returns ErrHalted. Safe to call from any
// goroutine.
func (a *Async) Halt() {
	if run := a.running(); run != nil {
		run.loop.Halt()
	}
}

// LiveWorkers returns the active run's current pool size — initial
// workers, plus joins, minus retirements and unreplaced crashes.
// Between runs it reports the configured size.
func (a *Async) LiveWorkers() int {
	run := a.running()
	if run == nil {
		return a.workers
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	return len(run.live)
}

// AddWorkers grows a running Train's pool by n mid-run: new workers are
// cloned from the live model and start pulling positions immediately. It
// returns how many workers were actually added — 0 when no run is active,
// n <= 0, or the pool is at its size cap. Safe to call from any
// goroutine, including an OnStep callback. Deterministic runs produce
// bitwise-identical trajectories regardless of when (or whether) workers
// join.
func (a *Async) AddWorkers(n int) int { return a.resize(n) }

// RemoveWorkers shrinks a running Train's pool by up to n mid-run:
// retired workers finish their in-flight position (or leave straight from
// the idle queue) and exit cleanly, so nothing is lost or recomputed. The
// pool never shrinks below one worker; the return value is how many
// retirements were actually granted — 0 when no run is active or n <= 0.
func (a *Async) RemoveWorkers(n int) int { return a.resize(-n) }

// resize applies a membership change to the active run: joins spawn
// immediately (capped at maxLiveWorkers); departures retire the newest
// workers, clamped so the pool keeps at least one.
func (a *Async) resize(delta int) int {
	run := a.running()
	if delta == 0 || run == nil {
		return 0
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.closed {
		return 0
	}
	live := len(run.live)
	if delta > 0 {
		delta = max(0, min(delta, maxLiveWorkers-live))
		for i := 0; i < delta; i++ {
			a.spawnLocked(run)
		}
		run.stats.Joined += int64(delta)
		return delta
	}
	n := min(-delta, live-1)
	if n <= 0 {
		return 0
	}
	for _, owner := range run.live[live-n:] {
		run.loop.Retire(owner)
	}
	run.live = run.live[:live-n]
	run.stats.Departed += int64(n)
	return n
}

// KernelWorkers returns the goroutine count each in-flight gradient's
// matrix kernels get: with a tight staleness window fewer gradients are
// in flight than the pool holds, so the spare workers shard A·M and M·A
// inside each gradient (staleness 0 puts the whole pool into the one
// running gradient, mirroring the synchronous GroupSize-1 split).
func (a *Async) KernelWorkers() int {
	return max(1, a.workers/min(a.base.Window, a.workers))
}

// NewPrefetcher sizes a spill prefetcher for asynchronous training the
// way Engine.NewPrefetcher does for group steps; depth <= 0 defaults to
// two pipeline windows' worth of batches.
func (a *Async) NewPrefetcher(st *storage.Store, depth int, maxBytes int64) *storage.Prefetcher {
	if depth <= 0 {
		depth = max(8, 2*a.base.Window)
	}
	return newPrefetcher(st, depth, a.workers, maxBytes)
}

// FillStore ingests a dataset exactly like Engine.FillStore (sharded
// compression across the pool, in-order admission), using this engine's
// pool.
func (a *Async) FillStore(st *storage.Store, d *data.Dataset, batchSize int) error {
	return New(Config{Workers: a.workers}).FillStore(st, d, batchSize)
}

// asyncRun is the shared state of one TrainFrom call, kept off the Async
// struct so Train stays reentrant. Membership changes and crash recovery
// are direct calls under mu; the lock order is mu, then the loop's lock.
type asyncRun struct {
	loop *Loop
	src  ml.BatchSource
	rel  ml.Releaser // src's release hook, nil if it has none
	kw   int         // kernel workers per clone
	wg   sync.WaitGroup

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
	stats AsyncStats // membership and crash counts; LoopStats folded in at the end
}

// recoverTo converts a panic escaping a worker's dispatch loop into a run
// error so Train can drain the pool and report instead of crashing the
// process mid-epoch. Worker *compute* panics never reach it: computeTask
// recovers those and handleCrash absorbs them under the restart budget.
func (r *asyncRun) recoverTo() {
	if p := recover(); p != nil {
		r.loop.Fail(fmt.Errorf("engine: async worker panicked: %v", p))
	}
}

// Train runs asynchronous bounded-staleness MGD for the given epochs:
// every epoch visits all batches in ingest order, each batch's gradient
// is one parameter update, and updates are applied in visit order under
// the staleness bound. The per-epoch losses sum each update's admitted
// mini-batch loss, exactly as the serial driver accounts them. cb may be
// nil.
//
// A panic in a worker (a poisoned batch, a failed storage read, a model
// bug) does not abort the run: the worker recovers it, requeues the lost
// position, and is replaced within the configured restart budget. Only
// when the budget is exhausted and the pool has degraded to nothing does
// the run fail, returning an error that chains every recovered panic
// (errors.Is/As reach the original values).
func (a *Async) Train(m ml.Model, src ml.BatchSource, epochs int, lr float64, cb ml.EpochCallback) (*ml.TrainResult, error) {
	return a.TrainFrom(m, src, epochs, lr, cb, nil)
}

// TrainFrom is Train with crash/resume support: with a non-nil resume
// it validates configuration compatibility, restores the parameters,
// the update clock, the partial epoch loss and (in Deterministic mode)
// the archived version window, and continues the run. Deterministic and
// staleness-0 runs resume bitwise identically to an uninterrupted run;
// free-running resumes are valid but timing-dependent. AsyncStats
// counts only the updates applied by this call.
func (a *Async) TrainFrom(m ml.Model, src ml.BatchSource, epochs int, lr float64, cb ml.EpochCallback, resume *checkpoint.State) (*ml.TrainResult, error) {
	a.statsMu.Lock()
	a.stats = AsyncStats{}
	a.statsMu.Unlock()
	cfg := a.base
	cfg.Epochs, cfg.NumBatches, cfg.LR, cfg.OnEpoch, cfg.Resume = epochs, src.NumBatches(), lr, cb, resume
	loop, err := NewLoop(cfg, m, src)
	if err != nil {
		return nil, err
	}
	rel, _ := src.(ml.Releaser)
	run := &asyncRun{loop: loop, src: src, rel: rel, kw: a.KernelWorkers()}
	// Publish the run so Halt/AddWorkers/RemoveWorkers can reach it; torn
	// down before Train returns so late calls see no run and no-op.
	a.runMu.Lock()
	a.cur = run
	a.runMu.Unlock()
	defer func() {
		a.runMu.Lock()
		a.cur = nil
		a.runMu.Unlock()
	}()

	run.mu.Lock()
	for w := 0; w < a.workers; w++ {
		a.spawnLocked(run)
	}
	run.mu.Unlock()

	res, err := loop.Wait()
	// Once closed is set nothing spawns, so no wg.Add races the Wait.
	run.mu.Lock()
	run.closed = true
	run.mu.Unlock()
	run.wg.Wait()

	run.mu.Lock()
	stats := run.stats
	run.mu.Unlock()
	stats.LoopStats = loop.Stats()
	a.statsMu.Lock()
	a.stats = stats
	a.statsMu.Unlock()
	return res, err
}

// spawnLocked adds one worker goroutine to a run's pool, training as a
// fresh owner on a clone of the live model. A worker whose compute
// panics runs handleCrash before it exits.
//
//toc:locked mu
func (a *Async) spawnLocked(run *asyncRun) {
	if run.closed {
		return
	}
	clone := run.loop.Clone()
	clone.SetKernelWorkers(run.kw)
	owner := run.loop.Join()
	run.live = append(run.live, owner)
	run.wg.Add(1)
	go func() {
		defer run.wg.Done()
		defer run.recoverTo()
		w := &asyncWorker{clone: clone, owner: owner, snap: make([]float64, clone.NumParams())}
		for {
			t, ok, _ := run.loop.Next(owner)
			if !ok {
				return // done, halted, failed — or retired by RemoveWorkers
			}
			// A crashing worker never loops on a poisoned state: it
			// retires, and handleCrash decides whether a replacement spawns.
			if p, crashed := a.computeTask(run, w, t); crashed {
				a.handleCrash(run, owner, p)
				return
			}
		}
	}()
}

// computeTask runs one position on the worker's private clone and submits
// its gradient, recovering any panic — a poisoned batch, a storage read
// that exhausted its retries, an injected engine.async.worker fault —
// instead of killing the run.
func (a *Async) computeTask(run *asyncRun, w *asyncWorker, t Task) (val any, crashed bool) {
	defer func() {
		if p := recover(); p != nil {
			val, crashed = p, true
		}
	}()
	// The canonical worker-kill injection point: chaos tests arm it to
	// fell a worker at an exact task count.
	if err := faultpoint.Err("engine.async.worker"); err != nil {
		panic(err)
	}
	x, y := run.src.Batch(t.Batch)
	// Refresh the clone after the batch is in hand, so a slow read costs
	// the gradient no freshness.
	version, ok := run.loop.Params(t.Pos, w.snap)
	if !ok {
		run.release(x)
		return nil, false
	}
	w.clone.SetParams(w.snap)
	g := run.loop.GradBuf()
	loss := w.clone.Grad(x, y, g)
	run.release(x)
	// Submit refuses only once the run has failed (this version is always
	// admissible), and then the next Next ends this worker.
	_ = run.loop.Submit(w.owner, t.Pos, version, loss, g)
	return nil, false
}

// release hands x back to the source once the worker is done with it.
func (run *asyncRun) release(x formats.CompressedMatrix) {
	if run.rel != nil {
		run.rel.Release(x)
	}
}

// asyncWorker is one pool member: its loop owner id, its private model
// clone and the buffer its parameters are refreshed through.
type asyncWorker struct {
	clone ml.Model
	owner int
	snap  []float64
}

// handleCrash absorbs one worker panic on the crashed worker's goroutine:
// the lost position is requeued for the rest of the pool, and the worker
// is replaced if the sliding-window budget allows (degrading the pool
// otherwise). When the pool is exhausted it fails the run.
//
//toc:timing
func (a *Async) handleCrash(run *asyncRun, owner int, val any) {
	run.loop.Abandon(owner)
	now := time.Now()
	run.mu.Lock()
	defer run.mu.Unlock()
	keep := run.restarts[:0]
	for _, ts := range run.restarts {
		if now.Sub(ts) < a.restartWindow {
			keep = append(keep, ts)
		}
	}
	run.restarts = keep
	run.stats.WorkerPanics++
	run.chain = append(run.chain, asyncPanicError(val))
	member := false
	for i, o := range run.live {
		if o == owner {
			run.live = append(run.live[:i], run.live[i+1:]...)
			member = true
			break
		}
	}
	// A worker RemoveWorkers already retired is no longer the pool's to
	// replace or to lose.
	replace := member && len(run.restarts) < a.restartBudget
	if replace {
		run.stats.Restarts++
		run.restarts = append(run.restarts, now)
		a.spawnLocked(run)
	} else if member {
		run.stats.Degraded++
	}
	if !replace && len(run.live) == 0 {
		run.loop.Fail(fmt.Errorf("engine: async worker pool exhausted after %d worker panics (restart budget %d per %v): %w",
			len(run.chain), a.restartBudget, a.restartWindow, errors.Join(run.chain...)))
	}
}

// asyncPanicError converts a recovered worker panic value into an
// error, preserving error panics (an injected faultpoint.Error, a
// storage.ReadError) for errors.Is/As inspection of the final chain.
func asyncPanicError(v any) error {
	if err, ok := v.(error); ok {
		return fmt.Errorf("engine: async worker panicked: %w", err)
	}
	return fmt.Errorf("engine: async worker panicked: %v", v)
}
