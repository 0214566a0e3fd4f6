package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"toc/internal/formats"
	"toc/internal/matrix"
)

// The rightmul regime isolates the forward kernels —
// the right multiplications A·v (linear-model scoring) and A·M
// (NN input layer) that every model's forward pass runs. Each measured
// "step" mimics what a gradient step does on one compressed batch: build
// one KernelPlan (a single decode-tree build) and push both forward
// kernels through it. The serial baseline is the paper's cost model: the
// per-op CompressedMatrix methods, each a plan of its own, so one tree
// rebuild per op. Both rows run on one goroutine: A·v never shards and
// A·M at p = 32 is a single panel, so a worker sweep here would measure
// nothing (BenchmarkMatrixKernels, p = 200, is where A·M and M·A scale).
//
// Because a plan's kernels are bitwise identical to the per-op methods,
// both rows report the same checksum — plan reuse buys wall-clock, never
// different numbers.

func init() {
	register("rightmul", "right-multiplication (forward) kernels: per-step plan reuse vs per-op rebuild", runRightMul)
}

func runRightMul(cfg Config) (*Table, error) {
	const batchSize, p = 1000, 32
	t := &Table{
		ID:    "rightmul",
		Title: "right-mul plan reuse (A·v + A·M per step, TOC batches)",
		Columns: []string{"config", "workers", "steps", "kernel_ms", "per_step_us",
			"speedup", "checksum"},
		Notes: []string{
			"each step = one batch's forward pair A·v + A·M; the plan row builds C' once",
			"  per step (KernelPlan), the serial row rebuilds it per op",
			"  (identical checksum across rows = bitwise-identical results)",
		},
	}
	d, err := getDataset("imagenet", cfg.rows(4000), cfg.Seed)
	if err != nil {
		return nil, err
	}
	n := d.NumBatches(batchSize)
	enc := formats.MustGet("TOC")
	batches := make([]formats.ParallelOps, n)
	for i := 0; i < n; i++ {
		x, _ := d.Batch(i, batchSize)
		po, ok := enc(x).(formats.ParallelOps)
		if !ok {
			return nil, fmt.Errorf("rightmul: TOC does not implement ParallelOps")
		}
		batches[i] = po
	}
	cols := d.X.Cols()
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	v := make([]float64, cols)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	m := matrix.NewDense(cols, p)
	for i := 0; i < cols; i++ {
		for j := 0; j < p; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	steps := int(10 * cfg.Scale)
	if steps < 2 {
		steps = 2
	}

	// checksum folds every result element in a fixed order, so it is
	// bit-for-bit identical across configs exactly when the kernels are.
	measure := func(plan bool) (time.Duration, float64) {
		var sum float64
		start := time.Now()
		for s := 0; s < steps; s++ {
			for _, b := range batches {
				var r1 []float64
				var r2 *matrix.Dense
				if plan {
					kp := b.NewKernelPlan()
					r1 = kp.MulVecInto(nil, v, 1)
					r2 = kp.MulMatInto(nil, m, 1)
					kp.Release()
				} else {
					r1 = b.MulVec(v)
					r2 = b.MulMat(m)
				}
				for _, x := range r1 {
					sum += x
				}
				for _, x := range r2.Data() {
					sum += x
				}
			}
		}
		return time.Since(start), sum
	}

	totalSteps := steps * len(batches)
	serialDur, serialSum := measure(false)
	planDur, planSum := measure(true)
	for _, r := range []struct {
		config string
		dur    time.Duration
		sum    float64
	}{{"serial", serialDur, serialSum}, {"plan", planDur, planSum}} {
		t.Rows = append(t.Rows, []string{
			r.config, "1", fmt.Sprint(totalSteps),
			fmt.Sprintf("%.0f", r.dur.Seconds()*1e3),
			fmt.Sprintf("%.0f", r.dur.Seconds()*1e6/float64(totalSteps)),
			fmt.Sprintf("%.2f", serialDur.Seconds()/r.dur.Seconds()),
			fmt.Sprintf("%016x", math.Float64bits(r.sum)),
		})
	}
	return t, nil
}
