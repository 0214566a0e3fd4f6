package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"toc/internal/data"
	"toc/internal/ml"
)

// options are one invocation's inputs.
type options struct {
	seed     int64
	seconds  float64   // scales every workload's epoch count (sizedSeconds = as frozen)
	trace    bool      // also make the traced run and the layer probes
	traceOut io.Writer // the traced run's spans go here as JSON lines; may be nil
	tmpDir   string    // parent of the run's temp dir; "" is the OS temp dir
}

// result is everything one workload reports.
type result struct {
	w        *workload
	e2e      metricSet
	layer    metricSet // nil when untraced
	info     map[string]any
	ops      int64
	failed   int64
	problems []string // output checks that did not hold
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// repeat is one timed, undecorated run of a loop.
type repeat struct {
	out        *runOut
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	heapMB     float64
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still reachable: the second collection empties
// the sync.Pool victim caches the first one filled.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func timedRun(lp loop, epochs int) (*repeat, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	out, err := lp.run(epochs, nil, nil)
	if err != nil {
		return nil, err
	}
	rep := &repeat{out: out, cpu: cpuTime() - c0}
	runtime.ReadMemStats(&m1)
	rep.mallocs, rep.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	rep.heapMB = liveHeapMB()
	runtime.KeepAlive(out.hold)
	out.hold = nil
	return rep, out.release()
}

// setUp generates the data and runs the workload's own ingest path, a
// few times when that is quick, and returns the last loop built with the
// set-up times. Generation is part of set-up: a change that moves work
// from the loop into ingest shows here.
func setUp(w *workload, e *env) (loop, []float64, error) {
	var times []float64
	var total time.Duration
	for {
		t0 := time.Now()
		d, err := w.generate(e.seed)
		if err != nil {
			return nil, nil, err
		}
		lp, err := w.open(w, e, d, w.base)
		if err != nil {
			return nil, nil, err
		}
		dt := time.Since(t0)
		times = append(times, dt.Seconds())
		if total += dt; len(times) == 3 || total > 3*time.Second {
			return lp, times, nil
		}
		if err := lp.close(); err != nil {
			return nil, nil, err
		}
	}
}

// runWorkload sets the workload up, times it, checks its outputs against
// the reference run and, when asked, makes the traced run.
func runWorkload(w *workload, o options) (*result, error) {
	dir, err := os.MkdirTemp(o.tmpDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: o.seed, dir: dir}
	epochs := w.scaledEpochs(o.seconds)
	r := &result{w: w, e2e: newMetricSet(endToEnd), info: map[string]any{}}

	baseMB := liveHeapMB()
	lp, setups, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	defer lp.close()
	loadedMB := liveHeapMB()
	r.e2e.set("setup_s", median(setups))

	var reps []*repeat
	for i := 0; i < repeats; i++ {
		rep, err := timedRun(lp, 1+epochs)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		r.ops += rep.out.ops
		r.failed += rep.out.failed
	}
	stored, err := lp.storedBytes()
	if err != nil {
		return nil, err
	}
	d, err := w.generate(o.seed)
	if err != nil {
		return nil, err
	}
	cols := d.X.Cols()
	r.e2e.set("stored_ratio", float64(w.rows)*float64(cols)*8/float64(stored))
	rate := r.summarize(reps, epochs)

	// Output checks, then the reference run on the same data.
	src, err := lp.source()
	if err != nil {
		return nil, err
	}
	r.check(sameAsDense(src, d), "stored batches do not decode to the generated rows")
	var refRate float64
	if w.ref != (variant{}) {
		if refRate, err = r.reference(e, d, epochs, reps[0].out); err != nil {
			return nil, err
		}
	}
	d = nil

	if o.trace {
		r.layer = newMetricSet(perLayer)
		for k, v := range reps[repeats-1].out.counters {
			r.layer.set(k, v)
		}
		if w.model != "" {
			r.layer.set("core.resident_overhead", (loadedMB-baseMB)*(1<<20)/float64(stored))
			r.layer.set("core.tree_builds_per_step", float64(reps[0].out.treeBuilds)/float64(reps[0].out.ops))
			var mallocs, bytes float64
			for _, rep := range reps {
				mallocs += float64(rep.mallocs)
				bytes += float64(rep.allocBytes)
			}
			r.layer.set("ml.allocs_per_step", mallocs/float64(r.ops))
			r.layer.set("ml.alloc_bytes_per_step", bytes/float64(r.ops))
		}
		if refRate > 0 {
			if w.ref.codec != "" {
				r.layer.set("dist.dense_rows_per_s", refRate)
				r.layer.set("dist.vs_dense", rate/refRate)
			} else {
				r.layer.set("matrix.den_rows_per_s", refRate)
				r.layer.set("core.vs_den", rate/refRate)
			}
		}
		if err := r.traced(lp, e, o, epochs, rate); err != nil {
			return nil, err
		}
	}
	if len(r.problems) > 0 {
		// A failed output check fails every op of the workload.
		r.failed = r.ops
	}
	return r, nil
}

// epochSeconds pools the timed epochs of some runs, ascending; epoch 0 of
// each run is warm-up.
func epochSeconds(outs ...*runOut) []float64 {
	var secs []float64
	for _, out := range outs {
		for _, t := range out.epochTime[1:] {
			secs = append(secs, t.Seconds())
		}
	}
	sort.Float64s(secs)
	return secs
}

// rowsPerSec is rows per epoch over the median timed epoch of the runs.
func (w *workload) rowsPerSec(outs ...*runOut) float64 {
	return float64(w.rows) / percentile(epochSeconds(outs...), 50)
}

// summarize fills the end-to-end metrics the repeats determine and
// returns rows_per_s.
func (r *result) summarize(reps []*repeat, epochs int) float64 {
	outs := make([]*runOut, len(reps))
	for i, rep := range reps {
		outs[i] = rep.out
	}
	secs := epochSeconds(outs...)
	p50 := percentile(secs, 50)
	rate := r.w.rowsPerSec(outs...)
	r.e2e.set("rows_per_s", rate)
	tail := tailPercentile(len(secs))
	r.info["epochs"] = len(secs)
	r.info["epoch_p50_s"] = p50
	r.info[fmt.Sprintf("epoch_p%g_s", tail)] = percentile(secs, tail)

	var cpu, heap []float64
	for _, rep := range reps {
		cpu = append(cpu, rep.cpu.Seconds()*1e6/(float64(r.w.rows)*float64(1+epochs)))
		heap = append(heap, rep.heapMB)
	}
	r.e2e.set("cpu_us_per_row", median(cpu))
	r.e2e.set("live_heap_mb", median(heap))

	if r.w.model == "" {
		return rate
	}
	first := reps[0].out.epochLoss
	final := first[len(first)-1]
	r.info["epoch0_loss"] = first[0]
	r.info["final_loss"] = final
	r.check(final < first[0], "final loss %v is not below epoch-0 loss %v", final, first[0])
	for i, rep := range reps {
		l := rep.out.epochLoss
		r.check(len(l) == 1+epochs, "repeat %d reported %d epochs, want %d", i, len(l), 1+epochs)
		if r.w.deterministic {
			r.check(math.Float64bits(l[len(l)-1]) == math.Float64bits(final),
				"repeat %d final loss %v differs from repeat 0's %v", i, l[len(l)-1], final)
		}
	}
	return rate
}

// reference trains the workload's exact counterpart (DEN batches, or the
// dense codec) with the same loop, data and seeds, checks the final loss
// against it and returns its rows_per_s.
func (r *result) reference(e *env, d *data.Dataset, epochs int, base *runOut) (float64, error) {
	ref, err := r.w.open(r.w, e, d, r.w.ref)
	if err != nil {
		return 0, err
	}
	defer ref.close()
	rep, err := timedRun(ref, 1+epochs)
	if err != nil {
		return 0, err
	}
	got, want := base.epochLoss[len(base.epochLoss)-1], rep.out.epochLoss[len(rep.out.epochLoss)-1]
	r.info["ref_final_loss"] = want
	r.check(math.Abs(got-want) <= r.w.refTol*math.Abs(want),
		"final loss %v is not within %g of the reference's %v", got, r.w.refTol, want)
	return r.w.rowsPerSec(rep.out), nil
}

// sameAsDense checks a sample of stored batches bit-equal to the rows
// they were generated from.
func sameAsDense(src ml.BatchSource, d *data.Dataset) bool {
	n := src.NumBatches()
	if n != d.NumBatches(batchSize) {
		return false
	}
	for i := 0; i < n; i += max(1, n/16) {
		x, y := src.Batch(i)
		wantX, wantY := d.Batch(i, batchSize)
		if !x.Decode().Equal(wantX) || len(y) != len(wantY) {
			return false
		}
		for k := range y {
			if y[k] != wantY[k] {
				return false
			}
		}
	}
	return true
}
