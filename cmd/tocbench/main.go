// Command tocbench reproduces the paper's tables and figures.
//
// Usage:
//
//	tocbench -list
//	tocbench -run fig5
//	tocbench -run all -scale 0.5
//	tocbench -run kernelspeed -csv kernelspeed.csv
//	tocbench -run kernelspeed -cpuprofile kernels.pprof
//
// Each experiment prints a paper-style table; benchmark/README.md records
// measured-vs-paper numbers. -scale trades runtime for fidelity (1.0 =
// default).
// -csv additionally appends every table to a CSV file, which is what CI
// uploads as an artifact so BENCH_* trajectories compare across PRs.
// -cpuprofile and -memprofile capture pprof profiles of the run itself —
// the loop that found this repo's decode-kernel hotspots — without
// having to wrap an experiment in a go test harness.
//
// The spill experiments (the out-of-core cells of fig9/fig10/table6/
// table7) take the storage layer's knobs: -spill-shards/-spill-dirs
// spread the spill; a batch stays resident iff it fits the budget left
// when it arrives. Their simulated disk is the store's one model —
// bandwidth an aggregate cap per directory, seeks serialized per shard —
// whose pacing arithmetic is unit-tested in internal/storage; benchmark/
// measures the real costs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"toc/internal/bench"
)

// openResult opens an output file (-csv, -cpuprofile, -memprofile). The
// default is O_EXCL — never silently clobber an existing results file,
// CI baselines compare against these; force opts into truncating it
// instead.
func openResult(path string, force bool) (*os.File, error) {
	mode := os.O_WRONLY | os.O_CREATE | os.O_EXCL
	if force {
		mode = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	}
	return os.OpenFile(path, mode, 0o644)
}

// startCPUProfile begins profiling into path under the same overwrite
// refusal as every other output. The returned stop flushes and closes
// the profile; it must run before the process exits, including on
// experiment failure, so a partial run still leaves a readable profile.
func startCPUProfile(path string, force bool) (stop func(), err error) {
	f, err := openResult(path, force)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile snapshots the heap to path after a run. The GC pass
// first drops already-dead objects so the profile shows what the
// experiments actually retain, not transient garbage.
func writeMemProfile(path string, force bool) error {
	f, err := openResult(path, force)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// runExperiments executes every experiment in order, rendering each
// table to stdout and, when csvFile is non-nil, appending it there.
func runExperiments(experiments []bench.Experiment, cfg bench.Config, csvFile *os.File) error {
	for _, e := range experiments {
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", e.ID, err)
		}
		table.Render(os.Stdout)
		if csvFile != nil {
			if err := table.RenderCSV(csvFile); err != nil {
				return fmt.Errorf("csv: %v", err)
			}
		}
	}
	return nil
}

func main() {
	var (
		run        = flag.String("run", "", "experiment id (fig2, fig5, ..., table6, table7, kernelspeed) or 'all'")
		scale      = flag.Float64("scale", 1.0, "dataset size multiplier")
		seed       = flag.Int64("seed", 1, "random seed")
		spillShard = flag.Int("spill-shards", 0, "spill shard count for the out-of-core experiments")
		spillDirs  = flag.String("spill-dirs", "", "comma-separated spill shard directories (models distinct devices)")
		csvPath    = flag.String("csv", "", "also append every table to this CSV file (refuses to overwrite an existing file)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (refuses to overwrite an existing file)")
		memProfile = flag.String("memprofile", "", "write a post-run heap profile to this file (refuses to overwrite an existing file)")
		force      = flag.Bool("force", false, "with -csv/-cpuprofile/-memprofile, truncate and overwrite an existing results file")
		list       = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, id := range bench.IDs() {
			e, _ := bench.Get(id)
			fmt.Printf("  %-10s %s\n", id, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nrun one with: tocbench -run <id>")
		}
		return
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.SpillShards = *spillShard
	if *spillDirs != "" {
		cfg.SpillDirs = strings.Split(*spillDirs, ",")
	}

	// Resolve every experiment id before any side effects, so a typo'd
	// -run cannot leave a truncated CSV or empty profile behind.
	ids := []string{*run}
	if *run == "all" {
		ids = bench.IDs()
	}
	experiments := make([]bench.Experiment, len(ids))
	for i, id := range ids {
		e, ok := bench.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "tocbench: unknown experiment %q; valid ids: %s (or 'all')\n",
				id, strings.Join(bench.IDs(), ", "))
			os.Exit(1)
		}
		experiments[i] = e
	}

	failOpen := func(what, path string, err error) {
		if os.IsExist(err) {
			fmt.Fprintf(os.Stderr, "tocbench: refusing to overwrite existing %s (rerun with -force, delete it, or pick another %s path)\n", path, what)
		} else {
			fmt.Fprintf(os.Stderr, "tocbench: %s: %v\n", what, err)
		}
		os.Exit(1)
	}

	var csvFile *os.File
	if *csvPath != "" {
		f, err := openResult(*csvPath, *force)
		if err != nil {
			failOpen("-csv", *csvPath, err)
		}
		defer f.Close()
		csvFile = f
	}

	var stopCPU func()
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile, *force)
		if err != nil {
			failOpen("-cpuprofile", *cpuProfile, err)
		}
		stopCPU = stop
	}

	runErr := runExperiments(experiments, cfg, csvFile)
	if stopCPU != nil {
		stopCPU()
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "tocbench: %v\n", runErr)
		os.Exit(1)
	}

	if *memProfile != "" {
		if err := writeMemProfile(*memProfile, *force); err != nil {
			failOpen("-memprofile", *memProfile, err)
		}
	}
}
