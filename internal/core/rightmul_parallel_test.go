package core

import (
	"math/rand"
	"testing"

	"toc/internal/matrix"
)

// rightMulBatches builds the two variants the sharded right-mul kernels
// must cover: a dense-ish Full batch and a sparse SparseLogical batch.
func rightMulBatches(rng *rand.Rand, rows, cols int) map[string]*Batch {
	dense := redundantMatrix(rng, rows, cols, 0.95, 4)
	sparse := redundantMatrix(rng, rows, cols, 0.25, 5)
	return map[string]*Batch{
		"full":          Compress(dense),
		"sparseLogical": CompressVariant(sparse, SparseLogical),
	}
}

// A sharded MulVecInto must be bitwise identical to the sequential MulVec
// for every worker count — each output row is an independent sequential reduction, so
// sharding rows can never reorder a float fold.
func TestRightMulParallelMulVecBitwiseIdentical(t *testing.T) {
	workerCounts := []int{1, 2, 7, 16}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		rows := 8 + rng.Intn(120)
		cols := 1 + rng.Intn(40)
		for name, b := range rightMulBatches(rng, rows, cols) {
			v := randVec(rng, cols)
			want := b.MulVec(v)
			plan := b.NewKernelPlan()
			for _, w := range workerCounts {
				got := plan.MulVecInto(nil, v, w)
				if !bitsEqual(got, want) {
					t.Fatalf("seed %d %s workers=%d: MulVecInto differs from MulVec", seed, name, w)
				}
			}
			plan.Release()
		}
	}
}

// A sharded MulMatInto must be bitwise identical to the sequential MulMat
// for every worker count and every p (columns of M), including p smaller than the worker
// count: the forward H scan shards over result columns (each column's
// parent-chain DP is independent) and the D scan over result rows.
func TestRightMulParallelMulMatBitwiseIdentical(t *testing.T) {
	workerCounts := []int{1, 2, 7, 16}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		rows := 8 + rng.Intn(80)
		cols := 1 + rng.Intn(30)
		for name, b := range rightMulBatches(rng, rows, cols) {
			plan := b.NewKernelPlan()
			for _, p := range []int{1, 3, 8, 21} {
				m := matrix.NewDense(cols, p)
				fillRand(rng, m)
				want := b.MulMat(m)
				for _, w := range workerCounts {
					got := plan.MulMatInto(nil, m, w)
					if !bitsEqual(got.Data(), want.Data()) {
						t.Fatalf("seed %d %s p=%d workers=%d: MulMatInto differs from MulMat",
							seed, name, p, w)
					}
				}
			}
			plan.Release()
		}
	}
}

// Tiny batches and workers <= 0 (sequential, like 1) must take the
// fallback and clamping paths without diverging.
func TestRightMulParallelEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tiny := Compress(redundantMatrix(rng, 3, 5, 0.6, 3))
	v := randVec(rng, 5)
	tinyPlan := tiny.NewKernelPlan()
	defer tinyPlan.Release()
	if !bitsEqual(tinyPlan.MulVecInto(nil, v, 8), tiny.MulVec(v)) {
		t.Fatal("tiny batch fallback diverges")
	}
	for _, w := range []int{0, -3} {
		if !bitsEqual(tinyPlan.MulVecInto(nil, v, w), tiny.MulVec(v)) {
			t.Fatalf("workers=%d diverges", w)
		}
	}
	sp := Compress(redundantMatrix(rng, 40, 12, 0.4, 3))
	spPlan := sp.NewKernelPlan()
	defer spPlan.Release()
	m := matrix.NewDense(12, 1)
	fillRand(rng, m)
	if !bitsEqual(spPlan.MulMatInto(nil, m, 7).Data(), sp.MulMat(m).Data()) {
		t.Fatal("p=1 MulMat diverges")
	}
}

func TestRightMulParallelDimMismatchPanics(t *testing.T) {
	plan := Compress(matrix.NewDense(30, 4)).NewKernelPlan()
	defer plan.Release()
	for name, call := range map[string]func(){
		"MulVecInto": func() { plan.MulVecInto(nil, make([]float64, 3), 4) },
		"MulMatInto": func() { plan.MulMatInto(nil, matrix.NewDense(3, 2), 4) },
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
