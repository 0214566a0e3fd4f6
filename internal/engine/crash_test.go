package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"toc/internal/checkpoint"
	"toc/internal/data"
	"toc/internal/faultpoint"
	"toc/internal/ml"
	"toc/internal/storage"
)

// The crash matrix: for every training configuration and every armed
// fault point — mid-spill-write, mid-manifest-rename, mid-checkpoint-
// rename, and between gradient apply and clock publish — a subprocess
// is killed (os.Exit, no deferred cleanup runs) at the fault, restarted
// against whatever the filesystem holds, and must finish with epoch
// losses and final parameters bitwise identical to a run that was never
// interrupted. TestMain re-execs the test binary as the victim.

func TestMain(m *testing.M) {
	if os.Getenv("TOC_CRASH_HELPER") == "1" {
		if err := runCrashHelper(os.Getenv("TOC_CRASH_CONFIG"), os.Getenv("TOC_CRASH_DIR")); err != nil {
			fmt.Fprintln(os.Stderr, "crash helper:", err)
			os.Exit(3)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCrashHelper is one victim process: ingest (or recover) the spill
// store, resume from the newest checkpoint if any, train, and write the
// run's bitwise result. Any armed fault point kills it mid-flight.
func runCrashHelper(cfgName, dir string) error {
	if err := faultpoint.ArmFromEnv(); err != nil {
		return err
	}
	d, err := data.Generate("census", 600, 1)
	if err != nil {
		return err
	}
	d.ShuffleOnce(2)

	// Spill store: recovered from the manifest when one survived, else
	// re-ingested from scratch (a crash before the manifest rename loses
	// only ingest work, never trajectory fidelity). The small budget
	// forces spills so training reads CRC-verified spans.
	storeDir := filepath.Join(dir, "store")
	manifest := filepath.Join(dir, "store.manifest")
	var st *storage.Store
	if _, serr := os.Stat(manifest); serr == nil {
		if st, err = storage.OpenStore(manifest); err != nil {
			return err
		}
	} else {
		if err = os.MkdirAll(storeDir, 0o755); err != nil {
			return err
		}
		if st, err = storage.NewStore(storeDir, "TOC", 2000, storage.WithShards(2)); err != nil {
			return err
		}
		ing := New(Config{Workers: 2, Seed: 11})
		if err = ing.FillStore(st, d, 50); err != nil {
			return err
		}
		if err = st.WriteManifest(manifest); err != nil {
			return err
		}
	}
	defer st.Close()

	w, err := checkpoint.NewWriter(filepath.Join(dir, "ckpt"))
	if err != nil {
		return err
	}
	w.SetSynchronous(true)
	w.SetKeep(1 << 20)
	defer w.Close()

	var resume *checkpoint.State
	if s, lerr := checkpoint.Latest(w.Dir()); lerr == nil {
		resume = s
	} else if !errors.Is(lerr, os.ErrNotExist) {
		return lerr
	}

	m, err := ml.NewModel("lr", d.X.Cols(), d.Classes, 0.1, 7)
	if err != nil {
		return err
	}

	var res *ml.TrainResult
	switch cfgName {
	case "sync":
		eng := New(Config{Workers: 4, GroupSize: 4, Seed: 11, Checkpoint: w, CheckpointEvery: 2})
		res, err = eng.TrainFrom(m, st, 3, 0.2, nil, resume)
	case "async0", "async4":
		staleness := 0
		if cfgName == "async4" {
			staleness = 4
		}
		a := New(Config{Workers: 4, GroupSize: 1, Staleness: staleness, Deterministic: true,
			Seed: 11, Checkpoint: w, CheckpointEvery: 2})
		res, err = a.TrainFrom(m, st, 3, 0.2, nil, resume)
	default:
		return fmt.Errorf("unknown config %q", cfgName)
	}
	if err != nil {
		return err
	}

	var buf bytes.Buffer
	for _, l := range res.EpochLoss {
		fmt.Fprintf(&buf, "epoch %016x\n", math.Float64bits(l))
	}
	params := make([]float64, m.NumParams())
	m.Params(params)
	for _, p := range params {
		fmt.Fprintf(&buf, "param %016x\n", math.Float64bits(p))
	}
	return os.WriteFile(filepath.Join(dir, "result"), buf.Bytes(), 0o644)
}

// runVictim executes the helper as a subprocess and returns its exit
// code and combined output.
func runVictim(t *testing.T, cfg, dir, faults string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"TOC_CRASH_HELPER=1",
		"TOC_CRASH_CONFIG="+cfg,
		"TOC_CRASH_DIR="+dir,
		faultpoint.EnvVar+"="+faults,
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("victim did not run: %v\n%s", err, out)
	return -1, ""
}

// crashFaults lists the adversarial kill points for a configuration.
func crashFaults(cfg string) map[string]string {
	hits := 4
	if cfg == "async0" || cfg == "async4" {
		hits = 7
	}
	return map[string]string{
		"spill-mid":         "storage.spill.mid=crash:2",
		"manifest-rename":   "storage.manifest.rename=crash:1",
		"checkpoint-rename": "checkpoint.rename=crash:2",
		"applied":           fmt.Sprintf("engine.local.applied=crash:%d", hits),
	}
}

func TestCrashMatrixResumeIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash matrix is not -short")
	}
	for _, cfg := range []string{"sync", "async0", "async4"} {
		cfg := cfg
		t.Run(cfg, func(t *testing.T) {
			// Uninterrupted baseline for this configuration.
			baseDir := t.TempDir()
			if code, out := runVictim(t, cfg, baseDir, ""); code != 0 {
				t.Fatalf("baseline run exited %d\n%s", code, out)
			}
			baseline, err := os.ReadFile(filepath.Join(baseDir, "result"))
			if err != nil {
				t.Fatal(err)
			}
			for name, spec := range crashFaults(cfg) {
				name, spec := name, spec
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					code, out := runVictim(t, cfg, dir, spec)
					if code != faultpoint.CrashExitCode {
						t.Fatalf("armed %q: victim exited %d, want crash code %d\n%s",
							spec, code, faultpoint.CrashExitCode, out)
					}
					if _, err := os.Stat(filepath.Join(dir, "result")); err == nil {
						t.Fatal("crashed victim wrote a result file")
					}
					// Restart against the crashed filesystem state.
					if code, out := runVictim(t, cfg, dir, ""); code != 0 {
						t.Fatalf("resume run exited %d\n%s", code, out)
					}
					got, err := os.ReadFile(filepath.Join(dir, "result"))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, baseline) {
						t.Fatalf("resumed run's result is not bitwise identical to the uninterrupted baseline\nbaseline:\n%s\nresumed:\n%s", baseline, got)
					}
				})
			}
		})
	}
}
