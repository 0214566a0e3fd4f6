package engine

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"toc/internal/checkpoint"
	"toc/internal/data"
	"toc/internal/ml"
	"toc/internal/testutil"
)

// The resume-identity discipline: a run that checkpoints must walk the
// exact trajectory of one that doesn't, and a run resumed from ANY of
// its checkpoints must finish with bitwise-identical per-step losses,
// epoch losses, and final parameters. These tests enumerate every
// checkpoint a run writes and resume from each; the crash matrix in
// crash_test.go proves the same property across real process kills.

const (
	resumeEpochs = 3
	resumeLR     = 0.2
	resumeGroup  = 4
)

// stepLog records the per-step loss sequence keyed by global step index.
type stepLog map[int64]float64

func (l stepLog) record(step int64, loss float64) { l[step] = loss }

type resumeRunner struct {
	name string
	run  func(t *testing.T, d *data.Dataset, src ml.BatchSource, ck *checkpoint.Writer, log stepLog, resume *checkpoint.State) (*ml.TrainResult, []float64, error)
	// stepOf maps a checkpoint's cursor to the global step index of the
	// first update a resume from it will apply.
	stepOf func(st *checkpoint.State, n int) int64
}

func snapshotParams(t *testing.T, m ml.Model) []float64 {
	t.Helper()
	out := make([]float64, m.NumParams())
	m.Params(out)
	return out
}

func syncResumeRunner() resumeRunner {
	return resumeRunner{
		name: "sync",
		run: func(t *testing.T, d *data.Dataset, src ml.BatchSource, ck *checkpoint.Writer, log stepLog, resume *checkpoint.State) (*ml.TrainResult, []float64, error) {
			m := newModel(t, "lr", d, 7)
			eng := New(Config{
				Workers: 4, GroupSize: resumeGroup, Seed: 11,
				Checkpoint: ck, CheckpointEvery: 2, OnStep: log.record,
			})
			res, err := eng.TrainFrom(m, src, resumeEpochs, resumeLR, nil, resume)
			return res, snapshotParams(t, m), err
		},
		stepOf: func(st *checkpoint.State, n int) int64 {
			upe := (n + resumeGroup - 1) / resumeGroup
			return int64(st.Epoch)*int64(upe) + int64(st.Pos/resumeGroup)
		},
	}
}

func asyncResumeRunner(staleness int) resumeRunner {
	name := "async-staleness0"
	if staleness > 0 {
		name = "async-det"
	}
	return resumeRunner{
		name: name,
		run: func(t *testing.T, d *data.Dataset, src ml.BatchSource, ck *checkpoint.Writer, log stepLog, resume *checkpoint.State) (*ml.TrainResult, []float64, error) {
			m := newModel(t, "lr", d, 7)
			a := New(Config{
				Workers: 4, GroupSize: 1, Staleness: staleness, Deterministic: true, Seed: 11,
				Checkpoint: ck, CheckpointEvery: 2, OnStep: log.record,
			})
			res, err := a.TrainFrom(m, src, resumeEpochs, resumeLR, nil, resume)
			params := make([]float64, m.NumParams())
			m.Params(params)
			return res, params, err
		},
		stepOf: func(st *checkpoint.State, n int) int64 { return st.Clock },
	}
}

func resumeRunners() []resumeRunner {
	return []resumeRunner{
		syncResumeRunner(),
		asyncResumeRunner(0),
		asyncResumeRunner(4),
	}
}

func assertBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %x, want %x (not bitwise identical)",
				what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestCheckpointResumeIdentity(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	for _, r := range resumeRunners() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			d, src := testSource(t, "census", 600)
			n := src.NumBatches()

			// Baseline: no checkpointing at all.
			baseLog := stepLog{}
			baseRes, baseParams, err := r.run(t, d, src, nil, baseLog, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Checkpointing must not perturb the trajectory. Synchronous
			// mode + unbounded keep makes every snapshot durable and
			// enumerable.
			dir := t.TempDir()
			w, err := checkpoint.NewWriter(dir)
			if err != nil {
				t.Fatal(err)
			}
			w.SetSynchronous(true)
			w.SetKeep(1 << 20)
			ckLog := stepLog{}
			ckRes, ckParams, err := r.run(t, d, src, w, ckLog, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			assertBitsEqual(t, "checkpointed params", ckParams, baseParams)
			assertBitsEqual(t, "checkpointed epoch losses", ckRes.EpochLoss, baseRes.EpochLoss)
			if len(ckLog) != len(baseLog) {
				t.Fatalf("checkpointed run logged %d steps, baseline %d", len(ckLog), len(baseLog))
			}
			for s, v := range ckLog {
				if math.Float64bits(v) != math.Float64bits(baseLog[s]) {
					t.Fatalf("checkpointed step %d loss differs from baseline", s)
				}
			}

			// Resume from every snapshot the run wrote; each must land on
			// the baseline's exact trajectory.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) < 3 {
				t.Fatalf("run wrote only %d checkpoints; the cadence should produce more", len(entries))
			}
			for _, e := range entries {
				st, err := checkpoint.Load(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatalf("load %s: %v", e.Name(), err)
				}
				rLog := stepLog{}
				rRes, rParams, err := r.run(t, d, src, nil, rLog, st)
				if err != nil {
					t.Fatalf("resume from %s: %v", e.Name(), err)
				}
				assertBitsEqual(t, "resumed params ("+e.Name()+")", rParams, baseParams)
				assertBitsEqual(t, "resumed epoch losses ("+e.Name()+")", rRes.EpochLoss, baseRes.EpochLoss)
				from := r.stepOf(st, n)
				if want := len(baseLog) - int(from); len(rLog) != want {
					t.Fatalf("resume from %s applied %d updates, want %d", e.Name(), len(rLog), want)
				}
				for s, v := range rLog {
					if s < from {
						t.Fatalf("resume from %s replayed step %d before its cursor %d", e.Name(), s, from)
					}
					bv, ok := baseLog[s]
					if !ok {
						t.Fatalf("resume from %s produced step %d the baseline never ran", e.Name(), s)
					}
					if math.Float64bits(v) != math.Float64bits(bv) {
						t.Fatalf("resume from %s: step %d loss %x, baseline %x", e.Name(), s, math.Float64bits(v), math.Float64bits(bv))
					}
				}
			}
		})
	}
}

// Halt must cut the run after the in-flight update, persist a final
// checkpoint synchronously, and leave a state that resumes onto the
// uninterrupted trajectory.
func TestHaltWritesResumableCheckpoint(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	for _, r := range resumeRunners() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			d, src := testSource(t, "census", 600)
			baseLog := stepLog{}
			_, baseParams, err := r.run(t, d, src, nil, baseLog, nil)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			w, err := checkpoint.NewWriter(dir)
			if err != nil {
				t.Fatal(err)
			}
			w.SetSynchronous(true)
			hLog := stepLog{}
			var halter interface{ Halt() }
			haltAt := int64(3)
			log := stepLog{}
			record := func(step int64, loss float64) {
				log.record(step, loss)
				if step == haltAt {
					halter.Halt()
				}
			}
			// Re-build the runner inline so the halt hook can reach the
			// engine: runner funcs construct their own engines, so for
			// this test we drive the two engine kinds directly.
			var haltedErr error
			var haltedParams []float64
			switch r.name {
			case "sync":
				m := newModel(t, "lr", d, 7)
				eng := New(Config{Workers: 4, GroupSize: resumeGroup, Seed: 11,
					Checkpoint: w, CheckpointEvery: 2, OnStep: record})
				halter = eng
				_, haltedErr = eng.TrainFrom(m, src, resumeEpochs, resumeLR, nil, nil)
				haltedParams = snapshotParams(t, m)
			default:
				m := newModel(t, "lr", d, 7)
				staleness := 0
				if r.name == "async-det" {
					staleness = 4
				}
				a := New(Config{Workers: 4, GroupSize: 1, Staleness: staleness, Deterministic: true,
					Seed: 11, Checkpoint: w, CheckpointEvery: 2, OnStep: record})
				halter = a
				_, haltedErr = a.TrainFrom(m, src, resumeEpochs, resumeLR, nil, nil)
				haltedParams = snapshotParams(t, m)
			}
			if haltedErr != ErrHalted {
				t.Fatalf("halted run returned %v, want ErrHalted", haltedErr)
			}
			_ = haltedParams
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			st, err := checkpoint.Latest(dir)
			if err != nil {
				t.Fatalf("no final checkpoint after Halt: %v", err)
			}
			_, rParams, err := r.run(t, d, src, nil, hLog, st)
			if err != nil {
				t.Fatal(err)
			}
			assertBitsEqual(t, "post-halt resumed params", rParams, baseParams)
		})
	}
}

// Deterministic delayed-gradient mode makes bounded staleness a pure
// function of (GroupSize, Staleness): any worker count must walk the same
// trajectory bitwise, and no applied gradient trails its step by more
// than the bound — also for group steps, whose clock skips the positions
// inside a step.
func TestAsyncDeterministicAcrossWorkerCounts(t *testing.T) {
	d, src := testSource(t, "census", 600)
	for _, group := range []int{1, 2} {
		var ref []float64
		var refLoss []float64
		for _, workers := range []int{1, 2, 8} {
			m := newModel(t, "lr", d, 7)
			e := New(Config{Workers: workers, GroupSize: group, Staleness: 3, Deterministic: true, Seed: 11})
			res, err := e.TrainFrom(m, src, 2, resumeLR, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); st.MaxStaleness > 3 || st.Rejected != 0 {
				t.Errorf("group %d, %d workers: max staleness %d, %d rejected", group, workers, st.MaxStaleness, st.Rejected)
			}
			params := make([]float64, m.NumParams())
			m.Params(params)
			if ref == nil {
				ref, refLoss = params, res.EpochLoss
				continue
			}
			assertBitsEqual(t, "params", params, ref)
			assertBitsEqual(t, "epoch losses", res.EpochLoss, refLoss)
		}
	}
}

// A checkpoint from an incompatible run must be refused, never silently
// trained into a different trajectory. TestLoopResumeRefusesEveryMismatch
// covers the table of mismatches; this is the through-the-engine case: a
// real group-2, staleness-0 checkpoint resumes under the same
// configuration and is refused at group 1 and at staleness 4.
func TestResumeRejectsIncompatibleCheckpoint(t *testing.T) {
	d, src := testSource(t, "census", 600)
	dir := t.TempDir()
	w, err := checkpoint.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.SetSynchronous(true)
	cfg := Config{Workers: 2, GroupSize: 2, Seed: 11}
	ck := cfg
	ck.Checkpoint, ck.CheckpointEvery = w, 2
	if _, err := New(ck).TrainFrom(newModel(t, "lr", d, 7), src, 1, resumeLR, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(c Config) error {
		_, err := New(c).TrainFrom(newModel(t, "lr", d, 7), src, 2, resumeLR, nil, st)
		return err
	}
	if err := resume(cfg); err != nil {
		t.Errorf("compatible resume refused: %v", err)
	}
	group1, stale4 := cfg, cfg
	group1.GroupSize, stale4.Staleness = 1, 4
	if err := resume(group1); err == nil {
		t.Error("a group-1 run resumed a group-2 checkpoint")
	}
	if err := resume(stale4); err == nil {
		t.Error("a staleness-4 run resumed a staleness-0 checkpoint")
	}
}

// benchTrain runs one full checkpointed (or plain) training; the ratio
// of the two benchmarks is the epoch-cadence checkpoint overhead. Only
// TrainFrom is timed — writer setup and teardown happen off the clock,
// but the background coalescing writer's work during training is paid
// where it belongs, inside the timed region.
func benchTrain(b *testing.B, withCheckpoint bool) {
	d, src := testSource(b, "census", 20000)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := Config{Workers: 4, GroupSize: resumeGroup, Seed: 11}
		var ck *checkpoint.Writer
		if withCheckpoint {
			var err error
			if ck, err = checkpoint.NewWriter(b.TempDir()); err != nil {
				b.Fatal(err)
			}
			cfg.Checkpoint = ck
		}
		m := newModel(b, "lr", d, 7)
		b.StartTimer()
		if _, err := New(cfg).TrainFrom(m, src, resumeEpochs, resumeLR, nil, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if ck != nil {
			if err := ck.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

func BenchmarkSyncTrainNoCheckpoint(b *testing.B)    { benchTrain(b, false) }
func BenchmarkSyncTrainEpochCheckpoint(b *testing.B) { benchTrain(b, true) }
