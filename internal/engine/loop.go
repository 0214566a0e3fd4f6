package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/faultpoint"
	"toc/internal/ml"
)

// ErrHalted is returned by a run that Halt interrupted: the partial
// result is valid, a final checkpoint (if a Writer is configured) has
// been written synchronously, and resuming from it continues the exact
// trajectory.
var ErrHalted = errors.New("engine: halted before completion")

// prefetchHints is what the loop tells a batch source that reads ahead;
// storage.Prefetcher implements it. Request names one batch whenever the
// stream deviates from ingest order — an abandoned position's batch is
// about to be read a second time. It must not block: the loop calls it
// under its lock.
type prefetchHints interface {
	Request(idx int)
}

// LoopConfig is the schedule a Loop walks. Every field is one the two
// front ends' own configs carry (Config, dist.ServerConfig).
type LoopConfig struct {
	// Kind names the front end; it is written into every checkpoint and a
	// checkpoint of another Kind is refused on resume.
	Kind checkpoint.Kind
	// Epochs × NumBatches global positions, applied in order; position
	// pos visits batch pos mod NumBatches.
	Epochs     int
	NumBatches int
	LR         float64
	// Seed identifies the run: it is written into every checkpoint and a
	// checkpoint of another Seed is refused on resume.
	Seed int64
	// Group is the positions-per-step count, already clamped to the batch
	// count; 0 (dist) means steps of one.
	Group int
	// Staleness bounds how many updates a gradient's parameter version may
	// trail its step; negative is unbounded.
	Staleness int
	// Deterministic admits only the oldest version the bound allows
	// (delayed-gradient SGD, see delayed) and serves it from an archive
	// ring.
	Deterministic bool
	// Window caps how far the release frontier may run ahead of the clock;
	// <= 0 means no cap. A bounded run's window is at most Staleness+1:
	// a position released further ahead could only be refused.
	Window int

	Checkpoint      *checkpoint.Writer
	CheckpointEvery int
	Resume          *checkpoint.State
	// OnStep and OnEpoch observe applied steps and completed epochs,
	// serially and in position order, on whichever goroutine submitted the
	// completing gradient — never under the loop's lock, so they may call
	// back into the loop or its front end.
	OnStep  func(step int64, loss float64)
	OnEpoch ml.EpochCallback
}

// LoopStats are the admission counters every front end reports.
type LoopStats struct {
	// Updates counts applied parameter updates.
	Updates int64
	// Rejected counts gradients Submit refused because their parameter
	// version was outside the staleness bound (in Deterministic mode: not
	// the delayed version). No healthy front end sends one.
	Rejected int64
	// Duplicates counts late gradients from abandoned owners — their
	// positions were reassigned — dropped idempotently.
	Duplicates int64
	// MaxStaleness is the largest version lag among applied gradients; it
	// never exceeds the configured bound. StaleSum/Updates is the mean.
	MaxStaleness int64
	StaleSum     int64
}

// MeanStaleness is the average number of updates an applied gradient's
// parameter version missed.
func (s LoopStats) MeanStaleness() float64 {
	if s.Updates == 0 {
		return 0
	}
	return float64(s.StaleSum) / float64(s.Updates)
}

// Task is one released position: its global epoch-major index, the batch
// it visits (Pos mod NumBatches), and the clock at release time (the
// parameter version a front end computing on the live model submits).
type Task struct {
	Pos     int64
	Batch   int
	Version int64
}

// ownerState is where an owner id stands; an id the loop never issued is
// ownerUnknown.
type ownerState uint8

const (
	ownerUnknown ownerState = iota
	ownerActive
	ownerRetired // leaving cleanly: may Submit what it holds, gets no more
	ownerGone    // abandoned, or retired and left
)

type assignment struct {
	task  Task
	owner int
}

type pendingGrad struct {
	grad  []float64
	loss  float64
	stale int64
}

// stepEvent is what one applied step owes the observers.
type stepEvent struct {
	step      int64
	loss      float64
	epoch     int // >= 0 when the step completed an epoch
	epochLoss float64
	elapsed   time.Duration
	ckpt      *checkpoint.State
}

// Loop is the position-ordered training loop behind every concurrent
// front end: it owns the model, the clock, the epoch-major position
// stream, the reorder buffer, admission, apply and epoch accounting,
// checkpoint cadence, resume validation and halt. Front ends only move
// parameters and gradients: they Join, then cycle Next → compute →
// Submit, from any number of goroutines.
//
// Positions are grouped into steps of Group consecutive positions (cut at
// epoch ends). A position is released, and a gradient admitted, when the
// clock (or the gradient's version) is within the staleness bound of the
// step's first position; a step is applied once every position in it is
// buffered, merged in position order.
type Loop struct {
	cfg    LoopConfig
	m      ml.Model
	hints  prefetchHints // src when it reads ahead, else nil
	n      int64
	total  int64
	group  int64
	bound  int64 // < 0 unbounded
	window int64
	np     int
	fault  string // fault point hit between apply and clock publish

	mu   sync.Mutex
	cond *sync.Cond
	//toc:guardedby mu
	clock int64 // applied positions = next position to apply
	//toc:guardedby mu
	released int64 // next never-released position
	//toc:guardedby mu
	step int64 // applied steps from the run's origin
	//toc:guardedby mu
	held []assignment // released positions and who computes them
	//toc:guardedby mu
	requeue []Task // abandoned positions awaiting a new owner
	//toc:guardedby mu
	pending map[int64]pendingGrad // admitted, awaiting in-order apply
	//toc:guardedby mu
	owners map[int]ownerState
	//toc:guardedby mu
	nextOwner int
	//toc:guardedby mu
	free [][]float64 // gradient buffer pool
	//toc:guardedby mu
	merged []float64
	// arch is the Deterministic ring of bound+1 parameter vectors; slot
	// v mod (bound+1) holds version v. Version v's slot is overwritten
	// only when a version past v+bound lands, which needs every step
	// starting at or before v+bound — the last readers of v — applied, so
	// a gated read is always intact.
	//toc:guardedby mu
	arch [][]float64
	//toc:guardedby mu
	stats LoopStats
	//toc:guardedby mu
	epochLoss float64
	//toc:guardedby mu
	sinceCkpt int
	//toc:guardedby mu
	res *ml.TrainResult
	//toc:guardedby mu
	start time.Time
	//toc:guardedby mu
	epochStart time.Time
	//toc:guardedby mu
	halted bool
	//toc:guardedby mu
	draining bool // one goroutine applies and observes at a time
	//toc:guardedby mu
	done bool
	//toc:guardedby mu
	err error
}

// NewLoop validates cfg (and cfg.Resume against it), restores a resumed
// run's parameters and cursor into m, and returns the loop ready for
// owners to Join. src is the caller's own batch source, used only for
// request hints; pass nil when workers own the data.
func NewLoop(cfg LoopConfig, m ml.Model, src ml.BatchSource) (*Loop, error) {
	if cfg.Epochs < 0 || cfg.NumBatches < 0 {
		return nil, fmt.Errorf("engine: need Epochs >= 0 and NumBatches >= 0, got %d and %d", cfg.Epochs, cfg.NumBatches)
	}
	// Delayed gradients need a delay: at staleness 0 the run is already
	// deterministic, and an unbounded one has no defined delay.
	cfg.Deterministic = cfg.Deterministic && cfg.Staleness > 0
	l := &Loop{
		cfg: cfg, m: m,
		n: int64(cfg.NumBatches), total: int64(cfg.Epochs) * int64(cfg.NumBatches),
		group: max(1, int64(cfg.Group)), bound: max(-1, int64(cfg.Staleness)),
		window: int64(cfg.Window), np: m.NumParams(),
		fault:   "engine." + cfg.Kind.String() + ".applied",
		pending: map[int64]pendingGrad{}, owners: map[int]ownerState{},
		res: &ml.TrainResult{},
	}
	l.hints, _ = src.(prefetchHints)
	l.cond = sync.NewCond(&l.mu)
	if l.window <= 0 {
		l.window = math.MaxInt64
	}
	if l.bound >= 0 {
		l.window = min(l.window, l.bound+1)
	}
	if l.group > 1 {
		l.merged = make([]float64, l.np)
	}
	if st := cfg.Resume; st != nil {
		if err := l.validateResume(st); err != nil {
			return nil, err
		}
		l.m.SetParams(st.Params)
		l.clock = st.Step()
		l.epochLoss = st.PartialLoss
		l.res.EpochLoss = append(l.res.EpochLoss, st.EpochLoss...)
		// Wall-clock of pre-crash epochs is gone; zero placeholders keep
		// EpochTime's epoch indices aligned with EpochLoss.
		l.res.EpochTime = make([]time.Duration, len(st.EpochLoss))
	}
	l.released = l.clock
	l.done = l.clock >= l.total
	if l.n > 0 {
		perEpoch := (l.n + l.group - 1) / l.group
		l.step = l.clock/l.n*perEpoch + l.clock%l.n/l.group
	}
	if cfg.Deterministic {
		ring := l.bound + 1
		l.arch = make([][]float64, ring)
		for i := range l.arch {
			l.arch[i] = make([]float64, l.np)
		}
		// The current params are version clock; a resume restores the
		// older versions still inside the staleness window.
		l.m.Params(l.arch[l.clock%ring])
		if st := cfg.Resume; st != nil {
			for i, vec := range st.Archive {
				copy(l.arch[(l.clock-int64(len(st.Archive))+int64(i))%ring], vec)
			}
		}
	}
	return l, nil
}

// validateResume rejects a checkpoint that a run with this exact
// configuration did not take — resuming it would silently train a
// different trajectory, which is worse than an error.
func (l *Loop) validateResume(st *checkpoint.State) error {
	cfg, clock := &l.cfg, st.Step()
	mismatches := []struct {
		bad  bool
		what string
		got  any
		want any
	}{
		{st.Kind != cfg.Kind, "kind", st.Kind, cfg.Kind},
		{st.NumBatches != cfg.NumBatches, "batch count", st.NumBatches, cfg.NumBatches},
		{st.Group != cfg.Group, "group size", st.Group, cfg.Group},
		{st.Seed != cfg.Seed, "seed", st.Seed, cfg.Seed},
		{int64(st.Staleness) != l.bound, "staleness", st.Staleness, l.bound},
		{st.Deterministic != cfg.Deterministic, "deterministic", st.Deterministic, cfg.Deterministic},
		{math.Float64bits(st.LR) != math.Float64bits(cfg.LR), "learning rate", st.LR, cfg.LR},
		{len(st.Params) != l.np, "parameter count", len(st.Params), l.np},
	}
	for _, mm := range mismatches {
		if mm.bad {
			return fmt.Errorf("engine: checkpoint %s %v, run uses %v", mm.what, mm.got, mm.want)
		}
	}
	switch {
	case st.Epoch < 0 || st.Pos < 0 || int64(st.Pos) >= l.n && st.Pos != 0 || clock < 0 || clock > l.total:
		return fmt.Errorf("engine: checkpoint cursor epoch=%d pos=%d clock=%d outside the %d-position schedule", st.Epoch, st.Pos, st.Clock, l.total)
	case l.n > 0 && l.stepStart(clock) != clock:
		return fmt.Errorf("engine: checkpoint position %d is not a step boundary (group %d)", clock, l.group)
	case l.n > 0 && int64(len(st.EpochLoss)) != clock/l.n:
		return fmt.Errorf("engine: checkpoint has %d epoch losses at position %d", len(st.EpochLoss), clock)
	}
	want := 0
	if cfg.Deterministic {
		want = int(min(l.bound, clock))
	}
	if len(st.Archive) != want {
		return fmt.Errorf("engine: checkpoint archives %d versions, want %d", len(st.Archive), want)
	}
	for i, vec := range st.Archive {
		if len(vec) != l.np {
			return fmt.Errorf("engine: archived version %d has %d params, model has %d", i, len(vec), l.np)
		}
	}
	return nil
}

// stepStart and stepEnd bound the step containing pos: Group consecutive
// positions, cut at the epoch end.
func (l *Loop) stepStart(pos int64) int64 { return pos - pos%l.n%l.group }

func (l *Loop) stepEnd(pos int64) int64 {
	return min(l.stepStart(pos)+l.group, (pos/l.n+1)*l.n)
}

// Join registers a new owner and returns its id.
func (l *Loop) Join() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.nextOwner
	l.nextOwner++
	l.owners[id] = ownerActive
	return id
}

// Retire asks owner to leave cleanly: it may still Submit what it holds,
// and its next Next reports the stream done and forgets it.
func (l *Loop) Retire(owner int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owners[owner] == ownerActive {
		l.owners[owner] = ownerRetired
		l.cond.Broadcast()
	}
}

// Abandon forgets owner — a crashed worker, a vanished trainer — and
// requeues every position it held for the survivors, returning how many.
func (l *Loop) Abandon(owner int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.abandonLocked(owner)
}

//toc:locked mu
func (l *Loop) abandonLocked(owner int) int {
	if l.owners[owner] != ownerUnknown {
		l.owners[owner] = ownerGone
	}
	kept, before := l.held[:0], len(l.requeue)
	for _, a := range l.held {
		if a.owner == owner {
			l.requeue = append(l.requeue, a.task)
		} else {
			kept = append(kept, a)
		}
	}
	l.held = kept
	l.cond.Broadcast()
	return len(l.requeue) - before
}

// Next blocks until a requeued position is available or the next one is
// releasable, and assigns it to owner. ok is false when there is nothing
// more for this owner: the schedule is complete, the run was halted, or
// the owner was retired. The error is the run's failure, or a caller bug
// (an owner that never joined).
//
//toc:timing
func (l *Loop) Next(owner int) (t Task, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		switch state := l.owners[owner]; {
		case state == ownerUnknown || state == ownerGone:
			return Task{}, false, fmt.Errorf("engine: Next from owner %d, which is not joined", owner)
		case l.done:
			return Task{}, false, l.err
		case state == ownerRetired:
			l.abandonLocked(owner)
			return Task{}, false, nil
		case l.halted:
			// Nothing more is released; the drain is about to finish.
		case len(l.requeue) > 0:
			t, l.requeue = l.requeue[0], l.requeue[1:]
			t.Version = l.clock
			// The batch may already have left the prefetch stream.
			if l.hints != nil {
				l.hints.Request(t.Batch)
			}
			l.held = append(l.held, assignment{t, owner})
			return t, true, nil
		case l.releasableLocked():
			if l.start.IsZero() {
				l.start = time.Now()
				l.epochStart = l.start
			}
			pos := l.released
			l.released++
			t = Task{Pos: pos, Batch: int(pos % l.n), Version: l.clock}
			l.held = append(l.held, assignment{t, owner})
			return t, true, nil
		}
		l.cond.Wait()
	}
}

// releasableLocked is the one release rule: the next never-released
// position may go out while its step starts less than Window positions
// ahead of the clock.
//
//toc:locked mu
func (l *Loop) releasableLocked() bool {
	return l.released < l.total && l.stepStart(l.released)-l.clock < l.window
}

// GradBuf returns a NumParams-long buffer for one gradient; Submit takes
// it back whatever the verdict.
func (l *Loop) GradBuf() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b
	}
	return make([]float64, l.np)
}

// Params copies into out the parameters owner should compute pos
// against and returns their version: the live parameters at the current
// clock, or in Deterministic mode exactly version delayed(stepStart(pos))
// from the archive, waiting for it to be published if the window ran
// ahead. ok is false when the run ended first.
func (l *Loop) Params(pos int64, out []float64) (version int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.cfg.Deterministic {
		l.m.Params(out)
		return l.clock, true
	}
	target := l.delayed(l.stepStart(pos))
	for l.clock < target && !l.done {
		l.cond.Wait()
	}
	if l.done {
		return 0, false
	}
	copy(out, l.arch[target%(l.bound+1)])
	return target, true
}

// Clone copies the live model under the lock that guards its parameters.
func (l *Loop) Clone() ml.Model {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Clone()
}

// admitsLocked is the one staleness rule: a parameter version v serves
// the step starting at start when it trails it by at most the bound —
// and, in Deterministic mode, when it is exactly delayed(start).
//
//toc:locked mu
func (l *Loop) admitsLocked(start, version int64) bool {
	if l.cfg.Deterministic {
		return version == l.delayed(start)
	}
	return l.bound < 0 || start-version <= l.bound
}

// delayed is the version Deterministic mode computes the step starting at
// start against: the oldest clock value the bound admits. The clock lands
// only on step starts, so that is max(0, start−bound) rounded up to one;
// with steps of one position it is max(0, start−bound) itself.
func (l *Loop) delayed(start int64) int64 {
	v := max(0, start-l.bound)
	if l.stepStart(v) == v {
		return v
	}
	return l.stepEnd(v)
}

// Submit hands in the gradient owner computed for pos against parameter
// version version. The loop takes grad back in every case. A late
// gradient from an abandoned owner — its position is someone else's now —
// is dropped and counted in Duplicates. Anything a well-behaved owner
// cannot send — an id that never joined, a position it does not hold, a
// wrong-length vector, a version from the future or one the staleness
// rule does not admit (counted in Rejected) — is an error that changes
// nothing else. An admitted gradient is buffered, and every step it
// completes is applied, in order, before Submit returns.
//
// A healthy front end is never refused for staleness:
//   - a position p is released only while stepStart(p) − clock < Window
//     ≤ Staleness+1;
//   - an Engine worker on a clone reads its version with Params after the
//     batch is in hand, one on the live model (staleness 0) submits the
//     release-time clock, and a requeued position's clock only grew;
//   - a dist trainer pulls whenever p − version > bound;
//   - in Deterministic mode, Params returns exactly delayed(stepStart(p)).
func (l *Loop) Submit(owner int, pos, version int64, loss float64, grad []float64) (err error) {
	l.mu.Lock()
	at, buffered := -1, false
	for i, a := range l.held {
		if a.task.Pos == pos && a.owner == owner {
			at = i
		}
	}
	switch state := l.owners[owner]; {
	case state == ownerUnknown:
		err = fmt.Errorf("engine: Submit from owner %d, which never joined", owner)
	case state == ownerGone:
		l.stats.Duplicates++
	case l.done:
		err = l.err // a late gradient for a finished run is dropped
	case len(grad) != l.np:
		err = fmt.Errorf("engine: gradient has %d coordinates, model has %d", len(grad), l.np)
	case at < 0:
		err = fmt.Errorf("engine: owner %d submitted position %d, which it does not hold", owner, pos)
	case version < 0 || version > l.clock:
		err = fmt.Errorf("engine: position %d computed at version %d, clock is %d", pos, version, l.clock)
	case !l.admitsLocked(l.stepStart(pos), version):
		l.stats.Rejected++
		err = fmt.Errorf("engine: position %d computed at version %d, which staleness bound %d does not admit", pos, version, l.bound)
	default:
		l.held[at] = l.held[len(l.held)-1]
		l.held = l.held[:len(l.held)-1]
		l.pending[pos] = pendingGrad{grad: grad, loss: loss, stale: l.stepStart(pos) - version}
		buffered = true
	}
	if !buffered && len(grad) == l.np {
		l.free = append(l.free, grad)
	}
	l.mu.Unlock()
	if buffered {
		l.drain()
	}
	return err
}

// drain applies every complete step at the clock, one at a time, running
// the observers between applies without the lock. One goroutine drains at
// a time; a submitter that finds the drain busy leaves its buffered
// gradient to it. A panic in the model or an observer fails the run
// instead of wedging the drain.
func (l *Loop) drain() {
	defer func() {
		if p := recover(); p != nil {
			l.Fail(fmt.Errorf("engine: %v update panicked: %v", l.cfg.Kind, p))
		}
	}()
	for first := true; ; first = false {
		ev, ok := l.applyNext(first)
		if !ok {
			return
		}
		if l.cfg.OnStep != nil {
			l.cfg.OnStep(ev.step, ev.loss)
		}
		if ev.epoch >= 0 && l.cfg.OnEpoch != nil {
			l.cfg.OnEpoch(ev.epoch, ev.elapsed, ev.epochLoss)
		}
		if ev.ckpt != nil {
			l.cfg.Checkpoint.SaveAsync(ev.ckpt)
		}
	}
}

// applyNext applies the step at the clock if all of it is buffered, or
// finishes the run if there is nothing left to apply. claim is true on a
// drain's first call, which must find the drain free; ok false releases
// it.
//
//toc:timing
func (l *Loop) applyNext(claim bool) (ev stepEvent, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if claim && l.draining || l.done {
		return ev, false
	}
	l.draining = false
	if l.halted || l.clock >= l.total {
		l.finishLocked()
		return ev, false
	}
	lo, hi := l.clock, l.stepEnd(l.clock)
	for p := lo; p < hi; p++ {
		if _, ok := l.pending[p]; !ok {
			return ev, false
		}
	}
	l.draining = true

	// Merge in position order, never arrival order, so the sum is
	// identical for any worker count; a step of one applies directly.
	g, merge := l.pending[lo].grad, hi-lo > 1
	if merge {
		g = l.merged
		clear(g)
	}
	ev = stepEvent{step: l.step, epoch: -1}
	for p := lo; p < hi; p++ {
		pg := l.pending[p]
		delete(l.pending, p)
		if merge {
			for j, v := range pg.grad {
				g[j] += v
			}
		}
		ev.loss += pg.loss
		l.stats.StaleSum += pg.stale
		l.stats.MaxStaleness = max(l.stats.MaxStaleness, pg.stale)
		l.free = append(l.free, pg.grad)
	}
	if merge {
		inv := 1 / float64(hi-lo)
		for j := range g {
			g[j] *= inv
		}
	}
	l.m.ApplyGrad(g, l.cfg.LR)
	faultpoint.Hit(l.fault)
	l.clock = hi
	if l.cfg.Deterministic {
		// Publish version hi into its ring slot before waking the gated
		// readers.
		l.m.Params(l.arch[hi%(l.bound+1)])
	}
	l.stats.Updates++
	l.step++
	l.epochLoss += ev.loss
	boundary := hi%l.n == 0
	if boundary {
		ev.epoch = int(hi/l.n) - 1
		ev.epochLoss = l.epochLoss / float64(l.n)
		ev.elapsed = time.Since(l.start)
		l.res.EpochLoss = append(l.res.EpochLoss, ev.epochLoss)
		l.res.EpochTime = append(l.res.EpochTime, time.Since(l.epochStart))
		l.epochLoss = 0
		l.epochStart = time.Now()
	}
	if l.cfg.Checkpoint != nil && hi < l.total {
		l.sinceCkpt++
		if every := l.cfg.CheckpointEvery; every > 0 && l.sinceCkpt >= every || every <= 0 && boundary {
			ev.ckpt = l.snapshotLocked()
			l.sinceCkpt = 0
		}
	}
	l.cond.Broadcast()
	return ev, true
}

// snapshotLocked captures the run between applied steps — the model only
// ever mutates under mu, so this is a consistent cut.
//
//toc:locked mu
func (l *Loop) snapshotLocked() *checkpoint.State {
	params := make([]float64, l.np)
	l.m.Params(params)
	st := &checkpoint.State{
		Kind: l.cfg.Kind, Seed: l.cfg.Seed, LR: l.cfg.LR, Deterministic: l.cfg.Deterministic,
		Group: l.cfg.Group, Staleness: int(l.bound), NumBatches: int(l.n),
		Epoch: int(l.clock / l.n), Pos: int(l.clock % l.n), Clock: l.clock,
		PartialLoss: l.epochLoss,
		EpochLoss:   append([]float64(nil), l.res.EpochLoss...),
		Params:      params,
	}
	if l.cfg.Deterministic {
		// The versions still inside the staleness window, oldest first:
		// max(0, clock−bound) .. clock−1.
		for v := max(0, l.clock-l.bound); v < l.clock; v++ {
			st.Archive = append(st.Archive, append([]float64(nil), l.arch[v%(l.bound+1)]...))
		}
	}
	return st
}

// finishLocked ends the run at the clock: the final checkpoint is written
// synchronously, so it is durable before Wait returns.
//
//toc:timing
//toc:locked mu
func (l *Loop) finishLocked() {
	if !l.start.IsZero() {
		l.res.Total = time.Since(l.start)
	}
	if l.cfg.Checkpoint != nil {
		l.err = l.cfg.Checkpoint.Save(l.snapshotLocked())
	}
	l.done = true
	l.cond.Broadcast()
}

// Halt asks the run to stop after the step being applied, if any: nothing
// more is released, gradients still in flight are dropped, a final
// checkpoint is written synchronously and Wait returns ErrHalted. Safe
// from any goroutine, e.g. a signal handler.
func (l *Loop) Halt() {
	l.mu.Lock()
	l.halted = true
	l.mu.Unlock()
	l.drain()
}

// Fail ends the run with err (the first failure wins) and wakes everyone.
func (l *Loop) Fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		l.err, l.done = err, true
		l.cond.Broadcast()
	}
}

// Wait blocks until the schedule completes, Halt lands or the run fails,
// and returns the result.
func (l *Loop) Wait() (*ml.TrainResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.done {
		l.cond.Wait()
	}
	if l.err == nil && l.clock < l.total {
		return l.res, ErrHalted
	}
	return l.res, l.err
}

// Stats returns a snapshot of the admission counters.
func (l *Loop) Stats() LoopStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
