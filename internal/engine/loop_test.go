package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/formats"
	"toc/internal/ml"
)

// These tests drive Loop by hand, on one goroutine, through the
// interleavings the front ends only reach by racing goroutines or a wire.
// The gradient of position p is the vector [p+1] and its loss is p+1, so
// the applied sequence, the merges and the epoch losses are all readable
// off the model's log.

// logModel is a one-parameter model that records every ApplyGrad.
type logModel struct {
	w       float64
	applied []float64
}

func (m *logModel) NumParams() int        { return 1 }
func (m *logModel) Params(out []float64)  { out[0] = m.w }
func (m *logModel) SetParams(p []float64) { m.w = p[0] }
func (m *logModel) Clone() ml.Model       { return &logModel{w: m.w} }
func (m *logModel) SetKernelWorkers(int)  {}
func (m *logModel) ApplyGrad(g []float64, lr float64) {
	m.applied = append(m.applied, g[0])
	m.w -= lr * g[0]
}
func (m *logModel) Grad(formats.CompressedMatrix, []float64, []float64) float64 { return 0 }
func (m *logModel) Loss(formats.CompressedMatrix, []float64) float64            { return 0 }
func (m *logModel) Predict(formats.CompressedMatrix) []float64                  { return nil }

// driver wraps a Loop with the hand-driving helpers and the observer log.
type driver struct {
	t      *testing.T
	l      *Loop
	n      int64 // batches per epoch
	m      *logModel
	steps  []string // "step:loss" per OnStep
	epochs []string // "epoch:loss" per OnEpoch
}

func drive(t *testing.T, cfg LoopConfig) *driver {
	t.Helper()
	d := &driver{t: t, n: int64(cfg.NumBatches), m: &logModel{}}
	cfg.LR = 0.5
	cfg.OnStep = func(step int64, loss float64) { d.steps = append(d.steps, fmt.Sprintf("%d:%g", step, loss)) }
	cfg.OnEpoch = func(epoch int, _ time.Duration, loss float64) {
		d.epochs = append(d.epochs, fmt.Sprintf("%d:%g", epoch, loss))
	}
	l, err := NewLoop(cfg, d.m, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.l = l
	return d
}

// next takes owner's next position, which the caller knows is releasable
// (a Next that had to wait would hang a one-goroutine test). Every epoch
// scans in ingest order, so whether the position is fresh, requeued or
// the first after a mid-epoch resume, it visits batch Pos mod NumBatches.
func (d *driver) next(owner int, want int64) Task {
	d.t.Helper()
	task, ok, err := d.l.Next(owner)
	if err != nil || !ok || task.Pos != want || int64(task.Batch) != task.Pos%d.n {
		d.t.Fatalf("Next(%d) = %+v, %v, %v; want position %d, batch %d", owner, task, ok, err, want, want%d.n)
	}
	return task
}

// canNext reports whether a Next would return without waiting.
func (d *driver) canNext() bool {
	d.l.mu.Lock()
	defer d.l.mu.Unlock()
	return d.l.done || len(d.l.requeue) > 0 || d.l.releasableLocked()
}

// submit hands in position pos computed at version and returns the verdict.
func (d *driver) submit(owner int, pos, version int64) error {
	g := d.l.GradBuf()
	g[0] = float64(pos + 1)
	return d.l.Submit(owner, pos, version, float64(pos+1), g)
}

func (d *driver) admit(owner int, pos, version int64) {
	d.t.Helper()
	if err := d.submit(owner, pos, version); err != nil {
		d.t.Fatalf("Submit(owner %d, pos %d, v%d) = %v; want admitted", owner, pos, version, err)
	}
}

func (d *driver) check(what string, got, want any) {
	d.t.Helper()
	if !reflect.DeepEqual(got, want) {
		d.t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestLoopOutOfOrderDuplicateAndUnheldSubmits(t *testing.T) {
	d := drive(t, LoopConfig{Kind: checkpoint.KindLocal, Epochs: 1, NumBatches: 4, Staleness: 2})
	a, b := d.l.Join(), d.l.Join()
	d.next(a, 0)
	d.next(b, 1)
	d.next(a, 2) // window = staleness+1 = 3 positions ahead of the clock
	d.admit(a, 2, 0)
	d.admit(b, 1, 0)
	d.check("clock with position 0 outstanding", d.l.Clock(), int64(0))
	for name, sub := range map[string]func() error{
		"duplicate":          func() error { return d.submit(a, 2, 0) },
		"another owner's":    func() error { return d.submit(b, 0, 0) },
		"never released":     func() error { return d.submit(a, 3, 0) },
		"past the schedule":  func() error { return d.submit(a, 4, 0) },
		"future version":     func() error { return d.submit(a, 0, 1) },
		"never-joined owner": func() error { return d.submit(99, 0, 0) },
		"wrong length":       func() error { return d.l.Submit(a, 0, 0, 1, make([]float64, 3)) },
	} {
		if err := sub(); err == nil {
			t.Errorf("%s submit admitted; want an error", name)
		}
	}
	if _, _, err := d.l.Next(99); err == nil {
		t.Error("Next from a never-joined owner succeeded")
	}
	d.check("applied before position 0 lands", d.m.applied, []float64(nil))
	d.admit(a, 0, 0)
	d.check("applied", d.m.applied, []float64{1, 2, 3})
	d.check("steps", d.steps, []string{"0:1", "1:2", "2:3"})
	d.check("stats", d.l.Stats(), LoopStats{Updates: 3, MaxStaleness: 2, StaleSum: 3})
	d.admit(b, d.next(b, 3).Pos, 3)
	res, err := d.l.Wait()
	d.check("err", err, error(nil))
	d.check("epoch losses", res.EpochLoss, []float64{(1 + 2 + 3 + 4) / 4.0})
	d.check("epochs", d.epochs, []string{"0:2.5"})
	if _, ok, err := d.l.Next(a); ok || err != nil {
		t.Errorf("Next after completion = %v, %v; want done", ok, err)
	}
}

func TestLoopStaleSubmitIsRefused(t *testing.T) {
	// Window 3 at staleness 0 is clamped to the bound's window of one step:
	// nothing is released that could only be refused.
	d := drive(t, LoopConfig{Kind: checkpoint.KindLocal, Epochs: 1, NumBatches: 3, Window: 3})
	a := d.l.Join()
	d.next(a, 0)
	if d.canNext() {
		t.Fatal("position 1 releasable at clock 0 under staleness 0")
	}
	d.admit(a, 0, 0)
	d.next(a, 1)
	if err := d.submit(a, 1, 0); err == nil {
		t.Fatal("version 0 admitted for position 1 under staleness 0")
	}
	d.check("stats after the refusal", d.l.Stats(), LoopStats{Updates: 1, Rejected: 1})
	d.admit(a, 1, 1) // still a's: the refusal changed nothing
	d.check("applied", d.m.applied, []float64{1, 2})
	d.check("stats", d.l.Stats(), LoopStats{Updates: 2, Rejected: 1})
}

func TestLoopDeterministicAdmitsOnlyTheArchivedVersion(t *testing.T) {
	d := drive(t, LoopConfig{Kind: checkpoint.KindLocal, Epochs: 1, NumBatches: 4, Staleness: 2, Deterministic: true})
	a := d.l.Join()
	snap := make([]float64, 1)
	for pos := int64(0); pos < 4; pos++ {
		d.next(a, pos)
		version, ok := d.l.Params(pos, snap)
		want := max(0, pos-2)
		if !ok || version != want {
			t.Fatalf("Params(%d) = v%d, %v; want v%d", pos, version, ok, want)
		}
		if pos == 3 {
			// Fresher than the delay is as wrong as staler.
			if err := d.submit(a, pos, 2); err == nil {
				t.Error("version 2 admitted for position 3 at delay 2")
			}
			d.check("archived params of version 1", snap[0], -0.5*1)
		}
		d.admit(a, pos, version)
	}
	d.check("stats", d.l.Stats(), LoopStats{Updates: 4, Rejected: 1, MaxStaleness: 2, StaleSum: 0 + 1 + 2 + 2})

	// Steps of two: the clock lands on 0, 2, 4, so the step at 4 computes
	// against version 2 (4−3 rounded up to a step start), never the
	// version 1 no apply ever published.
	d = drive(t, LoopConfig{Kind: checkpoint.KindLocal, Epochs: 1, NumBatches: 6, Group: 2, Staleness: 3, Deterministic: true})
	a = d.l.Join()
	for pos := int64(0); pos < 6; pos++ {
		d.next(a, pos)
		version, ok := d.l.Params(pos, snap)
		want := map[bool]int64{false: 0, true: 2}[pos >= 4]
		if !ok || version != want {
			t.Fatalf("group 2: Params(%d) = v%d, %v; want v%d", pos, version, ok, want)
		}
		if pos == 4 {
			if err := d.submit(a, pos, 1); err == nil {
				t.Error("group 2: version 1 admitted for the step at 4")
			}
			d.check("group 2: archived params of version 2", snap[0], -0.5*(1+2)/2)
		}
		d.admit(a, pos, version)
	}
	d.check("group 2 stats", d.l.Stats(), LoopStats{Updates: 3, Rejected: 1, MaxStaleness: 2, StaleSum: 0 + 0 + 2 + 2 + 2 + 2})
}

func TestLoopAbandonRequeuesForAnotherOwner(t *testing.T) {
	d := drive(t, LoopConfig{Kind: checkpoint.KindDist, Epochs: 1, NumBatches: 3, Staleness: 1})
	a, b := d.l.Join(), d.l.Join()
	d.next(a, 0)
	d.next(a, 1)
	d.check("requeued", d.l.Abandon(a), 2)
	d.next(b, 0) // requeued positions come back first, oldest first
	d.next(b, 1)
	// a's late gradient is dropped, not applied in b's place, and a is gone.
	if err := d.submit(a, 0, 0); err != nil {
		t.Errorf("late submit from an abandoned owner = %v; want a silent drop", err)
	}
	if _, _, err := d.l.Next(a); err == nil {
		t.Error("Next from an abandoned owner succeeded")
	}
	d.admit(b, 1, 0)
	d.admit(b, 0, 0)
	d.check("applied", d.m.applied, []float64{1, 2})
	d.check("stats", d.l.Stats(), LoopStats{Updates: 2, Duplicates: 1, MaxStaleness: 1, StaleSum: 1})

	// A retired owner hands in what it holds and is then told it is done.
	d.next(b, 2)
	d.l.Retire(b)
	d.admit(b, 2, 2)
	if _, ok, err := d.l.Next(b); ok || err != nil {
		t.Errorf("Next after Retire = %v, %v; want done", ok, err)
	}
}

func TestLoopHaltWithPositionsInFlight(t *testing.T) {
	dir := t.TempDir()
	w, err := checkpoint.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := drive(t, LoopConfig{Kind: checkpoint.KindLocal, Epochs: 2, NumBatches: 3, Staleness: 1, Checkpoint: w})
	a := d.l.Join()
	d.next(a, 0)
	d.next(a, 1)
	d.admit(a, 0, 0)
	d.l.Halt()
	res, err := d.l.Wait()
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("Wait after Halt = %v, want ErrHalted", err)
	}
	d.check("epoch losses of a run halted mid-epoch", res.EpochLoss, []float64(nil))
	// The gradient that was in flight is dropped; nothing more is released.
	if err := d.submit(a, 1, 0); err != nil {
		t.Errorf("submit after halt = %v; want a silent drop", err)
	}
	if _, ok, err := d.l.Next(a); ok || err != nil {
		t.Errorf("Next after halt = %v, %v; want done", ok, err)
	}
	d.check("applied", d.m.applied, []float64{1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.check("final checkpoint cursor", []any{st.Clock, st.PartialLoss, st.Params}, []any{int64(1), 1.0, []float64{-0.5}})
}

// syncRun walks a 2-epoch, 5-batch, group-2 schedule (steps {0,1} {2,3}
// {4} per epoch) from wherever the loop's cursor is, submitting each
// step's positions in reverse, and returns what the observers saw.
func syncRun(t *testing.T, cfg LoopConfig) (*driver, *ml.TrainResult) {
	cfg.Kind, cfg.Epochs, cfg.NumBatches, cfg.Group = checkpoint.KindLocal, 2, 5, 2
	d := drive(t, cfg)
	a := d.l.Join()
	for lo := d.l.Clock(); lo < 10; {
		hi := min(lo+2, (lo/5+1)*5)
		for p := lo; p < hi; p++ {
			if task := d.next(a, p); task.Version != lo {
				t.Fatalf("position %d released at version %d, want its step start %d", p, task.Version, lo)
			}
		}
		for p := hi - 1; p >= lo; p-- {
			d.check("clock while the step is incomplete", d.l.Clock(), lo)
			d.admit(a, p, lo)
		}
		lo = hi
	}
	res, err := d.l.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

func TestLoopGroupStepsCutAtEpochEndAndResumeMidEpoch(t *testing.T) {
	dir := t.TempDir()
	w, err := checkpoint.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.SetSynchronous(true)
	w.SetKeep(1 << 20)
	d, res := syncRun(t, LoopConfig{Checkpoint: w, CheckpointEvery: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Each step applies the mean of its positions' gradients, in position
	// order; the short last step applies its one gradient as is.
	d.check("applied", d.m.applied, []float64{1.5, 3.5, 5, 6.5, 8.5, 10})
	d.check("steps", d.steps, []string{"0:3", "1:7", "2:5", "3:13", "4:17", "5:10"})
	d.check("epochs", d.epochs, []string{"0:3", "1:8"})
	d.check("epoch losses", res.EpochLoss, []float64{3, 8})
	d.check("updates", d.l.Stats(), LoopStats{Updates: 6})

	// Resume from the checkpoint after epoch 1's first step: clock 7.
	st, err := checkpoint.Load(filepath.Join(dir, checkpoint.FileName(7)))
	if err != nil {
		t.Fatal(err)
	}
	d.check("checkpoint cursor", []int{st.Epoch, st.Pos, st.Group}, []int{1, 2, 2})
	rd, rres := syncRun(t, LoopConfig{Resume: st})
	d.check("resumed applied", rd.m.applied, []float64{8.5, 10})
	d.check("resumed steps", rd.steps, []string{"4:17", "5:10"})
	d.check("resumed epoch losses", rres.EpochLoss, res.EpochLoss)
	d.check("resumed epoch times keep their indices", len(rres.EpochTime), 2)
	d.check("resumed params", rd.m.w, d.m.w)
}

// Every front end's checkpoint is refused by a run it does not describe:
// another Kind, or any drift in the configuration that shapes the
// trajectory, or a cursor the schedule does not contain.
func TestLoopResumeRefusesEveryMismatch(t *testing.T) {
	bases := []LoopConfig{
		{Kind: checkpoint.KindLocal, Epochs: 3, NumBatches: 8, Seed: 1, Group: 4},
		{Kind: checkpoint.KindLocal, Epochs: 3, NumBatches: 8, Seed: 1, Staleness: 2, Deterministic: true},
		{Kind: checkpoint.KindDist, Epochs: 3, NumBatches: 8, Seed: 1, Staleness: 2},
	}
	for _, base := range bases {
		base.LR = 0.5
		// A cursor one epoch in: position 8.
		good := checkpoint.State{
			Kind: base.Kind, Seed: 1, LR: 0.5, Group: base.Group, Staleness: base.Staleness,
			Deterministic: base.Deterministic, NumBatches: 8, Epoch: 1, Clock: 8,
			EpochLoss: []float64{0.5}, Params: []float64{1},
		}
		if base.Deterministic {
			good.Archive = [][]float64{{3}, {2}}
		}
		resume := func(cfg LoopConfig, st checkpoint.State) error {
			cfg.Resume = &st
			_, err := NewLoop(cfg, &logModel{}, nil)
			return err
		}
		if err := resume(base, good); err != nil {
			t.Errorf("%v: valid resume refused: %v", base.Kind, err)
		}
		type edit struct {
			name string
			cfg  func(*LoopConfig)
			st   func(*checkpoint.State)
		}
		edits := []edit{
			{name: "seed", cfg: func(c *LoopConfig) { c.Seed = 99 }},
			{name: "lr", cfg: func(c *LoopConfig) { c.LR = 0.3 }},
			{name: "batches", cfg: func(c *LoopConfig) { c.NumBatches = 9 }},
			{name: "group", cfg: func(c *LoopConfig) { c.Group = 2 }},
			{name: "staleness", cfg: func(c *LoopConfig) { c.Staleness = 5 }},
			{name: "fewer epochs than the cursor", cfg: func(c *LoopConfig) { c.Epochs = 0 }},
			{name: "params", st: func(s *checkpoint.State) { s.Params = make([]float64, 5) }},
			{name: "negative cursor", st: func(s *checkpoint.State) { s.Epoch, s.Clock = -1, -8 }},
			{name: "cursor past the schedule", st: func(s *checkpoint.State) { s.Epoch, s.Clock = 124, 999 }},
			{name: "epoch losses", st: func(s *checkpoint.State) { s.EpochLoss = nil }},
			{name: "archive", st: func(s *checkpoint.State) { s.Archive = append(s.Archive, []float64{1}) }},
		}
		for _, other := range bases {
			if other.Kind != base.Kind {
				k := other.Kind
				edits = append(edits, edit{name: "kind " + k.String(), st: func(s *checkpoint.State) { s.Kind = k }})
			}
		}
		if base.Kind == checkpoint.KindLocal {
			edits = append(edits, edit{name: "position past the epoch", st: func(s *checkpoint.State) { s.Pos = 8 }})
		}
		if base.Group > 1 {
			edits = append(edits, edit{name: "mid-step cursor", st: func(s *checkpoint.State) { s.Pos = 2 }})
		}
		if base.Staleness > 0 {
			edits = append(edits, edit{name: "deterministic", cfg: func(c *LoopConfig) { c.Deterministic = !c.Deterministic }})
		}
		if base.Deterministic {
			edits = append(edits, edit{name: "archived vector length", st: func(s *checkpoint.State) { s.Archive[0] = []float64{1, 2} }})
		}
		for _, e := range edits {
			cfg, st := base, good
			st.EpochLoss = append([]float64(nil), good.EpochLoss...)
			st.Archive = append([][]float64(nil), good.Archive...)
			if e.cfg != nil {
				e.cfg(&cfg)
			}
			if e.st != nil {
				e.st(&st)
			}
			if err := resume(cfg, st); err == nil {
				t.Errorf("%v: %s mismatch accepted", base.Kind, e.name)
			}
		}
	}
}

// simulate runs cfg's schedule to completion on workers owners in
// virtual time, on this goroutine, over the real Loop: a discrete-event
// replay of what the front ends' pools do. An idle worker takes the next
// position as soon as the loop would release one (never before — a Next
// that had to wait would hang the test), pays cost(batch) time units,
// and only then picks its parameter version — the clock at that moment
// when refresh is set, as an Engine worker refreshing its clone after the
// batch is in hand; the release-time clock otherwise, as an Engine worker
// computing on the live model — and submits. Completions are processed in
// time order, ties to the lower worker. It returns the makespan and the
// loop's counters.
func simulate(t *testing.T, cfg LoopConfig, workers int, refresh bool, cost func(batch int) int64) (int64, LoopStats) {
	t.Helper()
	d := drive(t, cfg)
	type worker struct {
		owner int
		task  Task
		busy  bool
		until int64
	}
	pool := make([]*worker, workers)
	for i := range pool {
		pool[i] = &worker{owner: d.l.Join()}
	}
	for now := int64(0); ; {
		var first *worker
		for _, w := range pool {
			if !w.busy && d.canNext() {
				task, ok, err := d.l.Next(w.owner)
				if err != nil {
					t.Fatal(err)
				}
				w.task, w.busy, w.until = task, ok, now+cost(task.Batch)
			}
			if w.busy && (first == nil || w.until < first.until) {
				first = w
			}
		}
		if first == nil {
			if _, err := d.l.Wait(); err != nil {
				t.Fatal(err)
			}
			return now, d.l.Stats()
		}
		now = first.until
		version := first.task.Version
		if refresh {
			version = d.l.Clock()
		}
		if err := d.submit(first.owner, first.task.Pos, version); err != nil {
			t.Fatal(err)
		}
		first.busy = false
	}
}

// What bounded staleness buys, as arithmetic. Every 8th batch is a
// straggler costing 8 units against 1. The sync engine's group-of-8 step
// waits for its slowest member, so with 8 workers each step costs the
// straggler's 8 units however fast the other seven finish; the async
// schedule with a staleness window covering the skew period lets them
// flow around it. Staleness 0 is the serial chain — one position in
// flight, every cost in series — at any worker count. No row ever applies
// a gradient staler than its bound or has one refused.
func TestLoopAsyncFlowsAroundStragglersSyncBarrierWaits(t *testing.T) {
	const n, epochs, group = 40, 2, 8
	cost := func(batch int) int64 {
		if batch%8 == 0 {
			return 8
		}
		return 1
	}
	var serial int64
	for b := 0; b < n; b++ {
		serial += epochs * cost(b)
	}
	sync := map[int]int64{}
	for _, workers := range []int{1, 4, 8} {
		cfg := LoopConfig{Kind: checkpoint.KindLocal, Epochs: epochs, NumBatches: n, Group: group}
		makespan, st := simulate(t, cfg, min(workers, group), false, cost)
		sync[workers] = makespan
		if st.Updates != epochs*n/group || st.Rejected != 0 || st.MaxStaleness != 0 {
			t.Errorf("sync, %d workers: %+v", workers, st)
		}
	}
	// One worker pays every cost in series; from 4 workers up the seven
	// fast batches hide inside the straggler's 8 units.
	if want := map[int]int64{1: serial, 4: epochs * n, 8: epochs * n}; !reflect.DeepEqual(sync, want) {
		t.Errorf("sync makespans by workers = %v, want %v", sync, want)
	}
	// Async: staleness 0, or one worker, is the serial chain. At staleness
	// 8 with 8 workers the window (9 positions) admits two stragglers at
	// once — position p at time t and p+8 one unit later — and p+16 only
	// when p+8's completion moves the clock, at t+9: 16 positions per 9
	// units against the barrier's 16. The other rows are pinned as
	// measured; any change to release, admission or apply order moves them.
	for _, row := range []struct {
		staleness, workers int
		want               int64
	}{
		{0, 1, serial}, {0, 4, serial}, {0, 8, serial},
		{8, 1, serial}, {8, 4, 51}, {8, 8, epochs * n / 16 * 9},
		{32, 1, serial}, {32, 4, 40}, {32, 8, 24},
	} {
		cfg := LoopConfig{Kind: checkpoint.KindLocal, Epochs: epochs, NumBatches: n, Staleness: row.staleness}
		makespan, st := simulate(t, cfg, row.workers, true, cost)
		if makespan != row.want {
			t.Errorf("async staleness %d, %d workers: makespan %d, want %d", row.staleness, row.workers, makespan, row.want)
		}
		if st.Updates != epochs*n || st.Rejected != 0 || st.MaxStaleness > int64(row.staleness) {
			t.Errorf("async staleness %d, %d workers: %+v breaks the bound or the window", row.staleness, row.workers, st)
		}
		if row.staleness >= 8 && row.workers == 8 && makespan >= sync[8] {
			t.Errorf("async staleness %d at 8 workers takes %d, the sync barrier %d: want async ahead", row.staleness, makespan, sync[8])
		}
	}
}
