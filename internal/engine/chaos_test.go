package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"toc/internal/data"
	"toc/internal/faultpoint"
	"toc/internal/ml"
	"toc/internal/storage"
	"toc/internal/testutil"
)

// elasticRun trains one deterministic async run under a join/leave
// schedule (and optionally an injected worker crash), returning the
// final parameters, the per-step loss log, and the run's stats.
func elasticRun(t *testing.T, d *data.Dataset, src ml.BatchSource, schedule string, crashAfter int) ([]float64, []float64, Stats) {
	t.Helper()
	defer faultpoint.Reset()
	if crashAfter > 0 {
		faultpoint.ArmError("engine.worker", crashAfter)
	}
	a := New(Config{Workers: 4, GroupSize: 1, Staleness: 3, Deterministic: true})
	events, err := ParseElasticSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	a.SetOnStep(a.ElasticHook(events, func(step int64, loss float64) {
		losses = append(losses, loss) // updater goroutine, in position order
	}))
	m := newSnapshotModel(t, "lr", d, 11)
	if _, err := a.Train(m, src, 3, 0.2, nil); err != nil {
		t.Fatal(err)
	}
	return flatParams(t, m), losses, a.Stats()
}

func assertBitwise(t *testing.T, label string, gotP, wantP, gotL, wantL []float64) {
	t.Helper()
	if len(gotL) != len(wantL) {
		t.Fatalf("%s: %d step losses, want %d", label, len(gotL), len(wantL))
	}
	for i := range wantL {
		if math.Float64bits(gotL[i]) != math.Float64bits(wantL[i]) {
			t.Fatalf("%s: step %d loss %v != baseline %v", label, i, gotL[i], wantL[i])
		}
	}
	if diff := maxAbsDiff(gotP, wantP); diff != 0 {
		t.Fatalf("%s: final params diverge from baseline by %g", label, diff)
	}
}

// The headline elasticity guarantee: a Deterministic run's trajectory —
// final parameters and the per-step loss log — is bitwise identical
// across any join/leave schedule, and even when a worker crashes
// mid-run and its position is recomputed by a replacement. Delayed
// gradients are version-exact, so membership is invisible to the math.
func TestDeterministicBitwiseAcrossElasticSchedules(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	d, src := testSource(t, "census", 500)

	baseP, baseL, _ := elasticRun(t, d, src, "", 0)
	if len(baseL) != 30 { // 10 batches x 3 epochs
		t.Fatalf("baseline logged %d steps, want 30", len(baseL))
	}
	for _, spec := range []string{"4:+3", "6:-2,15:+4", "2:+1,9:-1,18:+2"} {
		p, l, st := elasticRun(t, d, src, spec, 0)
		assertBitwise(t, "schedule "+spec, p, baseP, l, baseL)
		if st.Joined == 0 {
			t.Errorf("schedule %s: no workers joined: %+v", spec, st)
		}
	}
	// Same guarantee with a worker kill layered on top of churn: the
	// injected fault fells one worker at its 7th task, a replacement
	// spawns, and the lost position re-enters the queue.
	p, l, st := elasticRun(t, d, src, "5:+2,12:-1", 7)
	assertBitwise(t, "schedule 5:+2,12:-1 with crash", p, baseP, l, baseL)
	if st.WorkerPanics != 1 || st.Restarts != 1 {
		t.Errorf("crash not absorbed by restart: %+v", st)
	}
}

// chaosStore spills every batch of d to disk behind a retrying store.
func chaosStore(t *testing.T, a *Engine, d *data.Dataset, retry storage.RetryPolicy) *storage.Store {
	t.Helper()
	st, err := storage.NewStore(t.TempDir(), "TOC", 1, storage.WithShards(2), storage.WithReadRetry(retry))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := a.FillStore(st, d, 50); err != nil {
		t.Fatal(err)
	}
	if !st.Spilled() {
		t.Fatal("chaos store must spill every batch")
	}
	return st
}

// The chaos matrix: worker kills crossed with transient storage faults
// (flaky reads plus a one-shot CRC corruption), over three engine
// configurations. Every cell must finish with parameters and epoch losses
// bitwise identical to its fault-free baseline, absorbing the injected
// failures through restarts and read retries rather than surfacing them.
func TestChaosMatrixSurvivesWorkerKillsAndStorageFaults(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	d, err := data.Generate("census", 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(4)
	retry := storage.RetryPolicy{Attempts: 5, Base: time.Microsecond, Max: 20 * time.Microsecond, Seed: 1}

	configs := []Config{
		// Staleness 0 reproduces the serial trajectory at group 1 and the
		// merged group-2 one; Deterministic delayed gradients pin the
		// staleness-3 one. All are bitwise reproducible, so "correct final
		// params" is an exact check.
		{Workers: 4, GroupSize: 1, Staleness: 0, RestartBudget: 64},
		{Workers: 4, GroupSize: 2, Staleness: 0, RestartBudget: 64},
		{Workers: 4, GroupSize: 1, Staleness: 3, Deterministic: true, RestartBudget: 64},
	}
	for ci, cfg := range configs {
		run := func(chaos bool) ([]float64, []float64, Stats, storage.Stats) {
			defer faultpoint.Reset()
			a := New(cfg)
			st := chaosStore(t, a, d, retry)
			pf := a.NewPrefetcher(st, 0, 0)
			defer pf.Close()
			if chaos {
				// One guaranteed worker kill, a flaky read layer, and a
				// single CRC corruption. A read that exhausts its retries
				// panics in the worker and is absorbed as one more crash.
				faultpoint.ArmError("engine.worker", 5)
				faultpoint.ArmErrorEvery("storage.read.error", 0.4, 3)
				faultpoint.ArmError("storage.read.crc", 3)
			}
			m := newSnapshotModel(t, "lr", d, 17)
			res, err := a.Train(m, pf, 3, 0.2, nil)
			if err != nil {
				t.Fatalf("config %d chaos=%v: %v", ci, chaos, err)
			}
			return flatParams(t, m), res.EpochLoss, a.Stats(), st.Stats()
		}
		baseP, baseL, _, _ := run(false)
		gotP, gotL, ast, sst := run(true)
		assertBitwise(t, fmt.Sprintf("config %d chaos run", ci), gotP, baseP, gotL, baseL)
		if ast.WorkerPanics == 0 || ast.Restarts == 0 {
			t.Errorf("config %d: worker kill not exercised: %+v", ci, ast)
		}
		if sst.Retries == 0 {
			t.Errorf("config %d: storage retry not exercised: %+v", ci, sst)
		}
	}
}

// Exhausting the restart budget must fail the run loudly, with every
// recovered panic — including the typed injected fault — preserved in
// the returned error chain.
func TestRestartBudgetExhaustionPreservesPanicChain(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	defer faultpoint.Reset()
	d, src := testSource(t, "census", 500)
	faultpoint.ArmErrorEvery("engine.worker", 1, 1) // every task panics
	a := New(Config{Workers: 2, GroupSize: 1, Staleness: 2, RestartBudget: 2})
	m := newSnapshotModel(t, "lr", d, 7)
	_, err := a.Train(m, src, 2, 0.2, nil)
	if err == nil {
		t.Fatal("Train survived a poisoned pool past its restart budget")
	}
	if !strings.Contains(err.Error(), "restart budget") {
		t.Errorf("error does not explain the budget: %v", err)
	}
	var fe *faultpoint.Error
	if !errors.As(err, &fe) {
		t.Errorf("injected *faultpoint.Error not reachable through the chain: %v", err)
	}
	// 2 workers + 2 replacements all crash: 4 panics, 2 restarts, then
	// 2 unreplaced crashes drain the pool to zero.
	st := a.Stats()
	if st.WorkerPanics != 4 || st.Restarts != 2 || st.Degraded != 2 {
		t.Errorf("stats = %+v, want 4 panics, 2 restarts, 2 degraded", st)
	}
}

// A negative budget disables replacement outright: every panic degrades
// the pool, and the run fails once the last worker is gone.
func TestNegativeRestartBudgetDisablesReplacement(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	defer faultpoint.Reset()
	d, src := testSource(t, "census", 500)
	faultpoint.ArmErrorEvery("engine.worker", 1, 1)
	a := New(Config{Workers: 3, GroupSize: 1, Staleness: 2, RestartBudget: -1})
	m := newSnapshotModel(t, "lr", d, 7)
	if _, err := a.Train(m, src, 2, 0.2, nil); err == nil {
		t.Fatal("Train survived with replacement disabled and every worker dead")
	}
	st := a.Stats()
	if st.Restarts != 0 || st.Degraded != 3 || st.WorkerPanics != 3 {
		t.Errorf("stats = %+v, want 0 restarts, 3 degraded, 3 panics", st)
	}
}
