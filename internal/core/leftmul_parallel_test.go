package core

import (
	"math"
	"math/rand"
	"testing"

	"toc/internal/matrix"
)

// bitsEqual reports exact bit-level equality of two float64 slices — the
// sharded kernels' contract is bitwise identity, not approximation.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// leftMulBatches builds the two batch shapes the sharded kernels must
// cover: a dense-ish logical batch and a sparse logical batch.
func leftMulBatches(rng *rand.Rand, rows, cols int) map[string]*Batch {
	dense := redundantMatrix(rng, rows, cols, 0.95, 4)
	sparse := redundantMatrix(rng, rows, cols, 0.25, 5)
	return map[string]*Batch{
		"dense":  Compress(dense),
		"sparse": Compress(sparse),
	}
}

// A sharded VecMulInto must be bitwise identical to the sequential VecMul
// for every worker count — the property the engine's trajectory
// invariance stands on.
func TestLeftMulParallelVecMulBitwiseIdentical(t *testing.T) {
	workerCounts := []int{1, 2, 7, 16}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := 8 + rng.Intn(120)
		cols := 1 + rng.Intn(40)
		for name, b := range leftMulBatches(rng, rows, cols) {
			v := randVec(rng, rows)
			want := b.VecMul(v)
			plan := b.NewKernelPlan()
			for _, w := range workerCounts {
				got := plan.VecMulInto(nil, v, w)
				if !bitsEqual(got, want) {
					t.Fatalf("seed %d %s workers=%d: VecMulInto differs from VecMul", seed, name, w)
				}
			}
			plan.Release()
		}
	}
}

// A sharded MatMulInto must be bitwise identical to the sequential MatMul
// for every worker count and every p (rows of M), including p smaller than the worker
// count.
func TestLeftMulParallelMatMulBitwiseIdentical(t *testing.T) {
	workerCounts := []int{1, 2, 7, 16}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		rows := 8 + rng.Intn(80)
		cols := 1 + rng.Intn(30)
		for name, b := range leftMulBatches(rng, rows, cols) {
			plan := b.NewKernelPlan()
			for _, p := range []int{1, 3, 8, 21} {
				m := matrix.NewDense(p, rows)
				fillRand(rng, m)
				want := b.MatMul(m)
				for _, w := range workerCounts {
					got := plan.MatMulInto(nil, m, w)
					if !bitsEqual(got.Data(), want.Data()) {
						t.Fatalf("seed %d %s p=%d workers=%d: MatMulInto differs from MatMul",
							seed, name, p, w)
					}
				}
			}
			plan.Release()
		}
	}
}

// Zero-weight rows and tiny batches must take the fallback paths without
// diverging.
func TestLeftMulParallelEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tiny := Compress(redundantMatrix(rng, 3, 5, 0.6, 3))
	v := []float64{0, -1.5, 0}
	tinyPlan := tiny.NewKernelPlan()
	defer tinyPlan.Release()
	if !bitsEqual(tinyPlan.VecMulInto(nil, v, 8), tiny.VecMul(v)) {
		t.Fatal("tiny batch fallback diverges")
	}
	sp := Compress(redundantMatrix(rng, 40, 12, 0.4, 3))
	spPlan := sp.NewKernelPlan()
	defer spPlan.Release()
	zeros := make([]float64, 40)
	if !bitsEqual(spPlan.VecMulInto(nil, zeros, 7), sp.VecMul(zeros)) {
		t.Fatal("all-zero vector diverges")
	}
	m := matrix.NewDense(1, 40)
	fillRand(rng, m)
	if !bitsEqual(spPlan.MatMulInto(nil, m, 7).Data(), sp.MatMul(m).Data()) {
		t.Fatal("p=1 MatMul fallback diverges")
	}
}

func TestLeftMulParallelDimMismatchPanics(t *testing.T) {
	plan := Compress(matrix.NewDense(30, 4)).NewKernelPlan()
	defer plan.Release()
	for name, call := range map[string]func(){
		"VecMulInto": func() { plan.VecMulInto(nil, make([]float64, 4), 4) },
		"MatMulInto": func() { plan.MatMulInto(nil, matrix.NewDense(2, 3), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			call()
		}()
	}
}
