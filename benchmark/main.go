// Command benchmark is the repo's one fixed instrument: five real-cost
// MGD workloads (real compute, real temp-dir spill, no sleeps), end-to-end
// metrics from undecorated runs, per-layer metrics from a traced run and
// direct probes, and output checks against exact reference runs. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
//	bash benchmark/run.sh -seed 1                       every workload, every metric
//	bash benchmark/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                                    one workload, one JSON result line
//	bash benchmark/run.sh -seed 1 -repeat-check         the suite twice, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// envInfo records what the numbers were measured on.
type envInfo struct {
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	// Warning is set when the 2-worker loops are oversubscribed, which
	// makes wall-clock numbers incomparable with the committed ones.
	Warning string `json:"warning,omitempty"`
}

func currentEnv(seed int64) envInfo {
	e := envInfo{Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if e.GOMAXPROCS < workers {
		e.Warning = fmt.Sprintf("GOMAXPROCS %d < %d workers: the concurrent loops are oversubscribed and wall-clock numbers are not comparable",
			e.GOMAXPROCS, workers)
	}
	return e
}

// workloadReport is one workload in the full report.
type workloadReport struct {
	Name         string         `json:"name"`
	Why          string         `json:"why"`
	Dataset      string         `json:"dataset"`
	Rows         int            `json:"rows"`
	TimedEpochs  int            `json:"timed_epochs_per_repeat"`
	EndToEnd     metricSet      `json:"end_to_end"`
	PerLayer     metricSet      `json:"per_layer,omitempty"`
	Info         map[string]any `json:"info"`
	OpsAttempted int64          `json:"ops_attempted"`
	OpsFailed    int64          `json:"ops_failed"`
	Correct      bool           `json:"correct"`
	Problems     []string       `json:"problems,omitempty"`
}

// contractResult is the single last line the driver reads.
type contractResult struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	name := flag.String("workload", "", "run this workload only and print one result line; empty runs all five")
	flag.Int64Var(&o.seed, "seed", 1, "the only input that changes the generated data")
	flag.Float64Var(&o.seconds, "seconds", sizedSeconds, "measuring time the epoch counts are scaled to")
	trace := flag.Int("trace", 1, "1 also makes the traced run and reports per-layer metrics; with -workload, 0 prints end-to-end and 1 per-layer metrics")
	traceOut := flag.String("trace-out", "", "write the traced runs' spans to this file as JSON lines")
	repeatCheck := flag.Bool("repeat-check", false, "run the suite twice and compare every end-to-end metric against its bound")
	flag.StringVar(&o.tmpDir, "tmpdir", "", "directory for the run's temp files (default: the OS temp dir)")
	flag.Parse()
	o.trace = *trace != 0

	// One root for everything the run writes, removed on every exit path.
	root, err := os.MkdirTemp(o.tmpDir, "toc-benchmark-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(root)
	o.tmpDir = root
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(root)
		os.Exit(130)
	}()

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		o.traceOut = f
	}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		r, err := runWorkload(w, o)
		if err != nil {
			return fail(err)
		}
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "check failed:", p)
		}
		res := contractResult{Correct: len(r.problems) == 0, Attempted: r.ops, Failed: r.failed, Metrics: r.e2e}
		if o.trace {
			res.Metrics = r.layer
		}
		return printJSON(res, false)
	}

	first, ok, err := runAll(o)
	if err != nil {
		return fail(err)
	}
	if !*repeatCheck {
		return exitCode(ok)
	}
	second, ok2, err := runAll(o)
	if err != nil {
		return fail(err)
	}
	return exitCode(compareRuns(first, second) && ok && ok2)
}

func exitCode(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func printJSON(v any, indent bool) int {
	enc := json.NewEncoder(os.Stdout)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		return fail(err)
	}
	return 0
}

// runAll runs the five workloads in sequence in this process and prints
// the full report; ok is false when any output check failed.
func runAll(o options) (reports []workloadReport, ok bool, err error) {
	ok = true
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "running %s\n", w.name)
		r, err := runWorkload(w, o)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", w.name, err)
		}
		ok = ok && len(r.problems) == 0
		reports = append(reports, workloadReport{
			Name: w.name, Why: w.why, Dataset: w.dataset, Rows: w.rows, TimedEpochs: w.scaledEpochs(o.seconds),
			EndToEnd: r.e2e, PerLayer: r.layer, Info: r.info,
			OpsAttempted: r.ops, OpsFailed: r.failed, Correct: len(r.problems) == 0, Problems: r.problems,
		})
	}
	printJSON(struct {
		Env       envInfo          `json:"env"`
		Workloads []workloadReport `json:"workloads"`
	}{currentEnv(o.seed), reports}, true)
	return reports, ok, nil
}

// compareRuns prints, per workload and end-to-end metric, how far two
// runs of the same code lie apart relative to the metric's bound, and
// reports whether all stayed within it.
func compareRuns(a, b []workloadReport) bool {
	ok := true
	fmt.Printf("%-16s %-16s %14s %14s %8s %8s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i := range a {
		for _, def := range endToEnd {
			x, y := a[i].EndToEnd.get(def.name), b[i].EndToEnd.get(def.name)
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if diff > def.bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-16s %-16s %14.6g %14.6g %7.2f%% %7.2f%%%s\n", a[i].Name, def.name, x, y, 100*diff, 100*def.bound, verdict)
		}
	}
	return ok
}
