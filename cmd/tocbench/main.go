// Command tocbench runs the kernelspeed regime: the single-core speed of
// the four compressed multiplication kernels against a dense roofline
// measured in the same process (kernelspeed.go documents the columns).
//
// Usage:
//
//	tocbench
//	tocbench -csv kernelspeed.csv
//	tocbench -cpuprofile kernels.pprof -memprofile kernels.heap
//
// -csv also writes the table as CSV, which CI compares against the
// committed BENCH_kernelspeed.json baseline with cmd/benchdiff.
// -cpuprofile and -memprofile capture pprof profiles of the run itself —
// the loop that found this repo's decode-kernel hotspots — without
// wrapping the regime in a go test harness. End-to-end costs (training,
// spill IO, the distributed link) are measured by benchmark/.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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
// a failed run, so a partial run still leaves a readable profile.
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
// regime actually retains, not transient garbage.
func writeMemProfile(path string, force bool) error {
	f, err := openResult(path, force)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func main() {
	var (
		csvPath    = flag.String("csv", "", "also write the table to this CSV file (refuses to overwrite an existing file)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (refuses to overwrite an existing file)")
		memProfile = flag.String("memprofile", "", "write a post-run heap profile to this file (refuses to overwrite an existing file)")
		force      = flag.Bool("force", false, "with -csv/-cpuprofile/-memprofile, truncate and overwrite an existing results file")
	)
	flag.Parse()

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

	table, runErr := runKernelSpeed(4000, 6)
	if stopCPU != nil {
		stopCPU()
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "tocbench: %v\n", runErr)
		os.Exit(1)
	}
	table.Render(os.Stdout)
	if csvFile != nil {
		if err := table.RenderCSV(csvFile); err != nil {
			fmt.Fprintf(os.Stderr, "tocbench: csv: %v\n", err)
			os.Exit(1)
		}
	}

	if *memProfile != "" {
		if err := writeMemProfile(*memProfile, *force); err != nil {
			failOpen("-memprofile", *memProfile, err)
		}
	}
}
