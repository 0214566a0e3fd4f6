package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"toc/internal/matrix"
)

// The oracle: Algorithm 2 exactly as the paper writes it — a tree that
// stores every node's key as a Pair, built with the Pair-valued F array —
// and the four Table 1 kernels as textbook loops over it, no unrolling,
// no sharding, no first-layer indirection. The lean 8-byte tree and both
// entry points built on it (the per-op Batch methods and KernelPlan's
// Into methods at any worker count, allocating or into a caller-owned
// dst) must reproduce the oracle's bits, and Decode its sequences.

type oracleTree struct {
	Key    []Pair
	Parent []uint32
}

func oracleBuild(I []Pair, D dTable) *oracleTree {
	size := treeSize(I, D)
	t := &oracleTree{Key: make([]Pair, size), Parent: make([]uint32, size)}
	first := make([]Pair, size)
	copy(t.Key[1:], I)
	copy(first[1:], I)
	idx := len(I) + 1
	for i := 0; i < D.rows(); i++ {
		row := D.row(i)
		for j := 0; j+1 < len(row); j++ {
			t.Parent[idx] = row[j]
			first[idx] = first[row[j]]
			t.Key[idx] = first[row[j+1]]
			idx++
		}
	}
	return t
}

func (t *oracleTree) mulVec(D dTable, v []float64) []float64 {
	h := make([]float64, len(t.Key))
	for i := 1; i < len(h); i++ {
		h[i] = float64(t.Key[i].Val*v[t.Key[i].Col]) + h[t.Parent[i]]
	}
	r := make([]float64, D.rows())
	for i := range r {
		var s float64
		for _, n := range D.row(i) {
			s += h[n]
		}
		r[i] = s
	}
	return r
}

func (t *oracleTree) vecMul(D dTable, v []float64, cols int) []float64 {
	h := make([]float64, len(t.Key))
	for i := 0; i < D.rows(); i++ {
		for _, n := range D.row(i) {
			h[n] += v[i]
		}
	}
	r := make([]float64, cols)
	for i := len(h) - 1; i >= 1; i-- {
		r[t.Key[i].Col] += t.Key[i].Val * h[i]
		h[t.Parent[i]] += h[i]
	}
	return r
}

func (t *oracleTree) mulMat(D dTable, m *matrix.Dense) *matrix.Dense {
	p := m.Cols()
	h := matrix.NewDense(len(t.Key), p)
	for i := 1; i < len(t.Key); i++ {
		k := t.Key[i]
		for j := 0; j < p; j++ {
			h.Set(i, j, k.Val*m.At(int(k.Col), j)+h.At(int(t.Parent[i]), j))
		}
	}
	r := matrix.NewDense(D.rows(), p)
	for i := 0; i < D.rows(); i++ {
		for _, n := range D.row(i) {
			for j := 0; j < p; j++ {
				r.Set(i, j, r.At(i, j)+h.At(int(n), j))
			}
		}
	}
	return r
}

func (t *oracleTree) matMul(D dTable, m *matrix.Dense, cols int) *matrix.Dense {
	p := m.Rows()
	h := matrix.NewDense(len(t.Key), p)
	for i := 0; i < D.rows(); i++ {
		for _, n := range D.row(i) {
			for k := 0; k < p; k++ {
				h.Set(int(n), k, h.At(int(n), k)+m.At(k, i))
			}
		}
	}
	r := matrix.NewDense(p, cols)
	for i := len(t.Key) - 1; i >= 1; i-- {
		key, par := t.Key[i], int(t.Parent[i])
		for k := 0; k < p; k++ {
			r.Set(k, int(key.Col), r.At(k, int(key.Col))+key.Val*h.At(i, k))
			h.Set(par, k, h.At(par, k)+h.At(i, k))
		}
	}
	return r
}

// oracleCases returns the sparse-row inputs the lean tree must survive:
// randomized redundant shapes, rows that encode to nothing, one row, no
// nonzeros at all, no repetition at all, and tuples that repeat their own
// just-added sequence (which no matrix row can, but Algorithm 1 accepts).
func oracleCases(rng *rand.Rand) map[string]struct {
	cols int
	rows []SparseRow
} {
	type tc = struct {
		cols int
		rows []SparseRow
	}
	cases := map[string]tc{}
	for k := 0; k < 6; k++ {
		rows, cols := 1+rng.Intn(90), 1+rng.Intn(30)
		m := redundantMatrix(rng, rows, cols, 0.1+0.85*rng.Float64(), 2+rng.Intn(5))
		cases[fmt.Sprintf("random%d", k)] = tc{cols, SparseEncode(m)}
	}
	holes := redundantMatrix(rng, 40, 12, 0.6, 3)
	for i := 0; i < 40; i += 3 {
		for j := range holes.Row(i) {
			holes.Set(i, j, 0)
		}
	}
	cases["emptyRows"] = tc{12, SparseEncode(holes)}
	cases["singleRow"] = tc{9, SparseEncode(redundantMatrix(rng, 1, 9, 0.8, 3))}
	cases["allZero"] = tc{7, SparseEncode(matrix.NewDense(20, 7))}
	distinct := matrix.NewDense(15, 6)
	for i := 0; i < 15; i++ {
		for j := 0; j < 6; j++ {
			distinct.Set(i, j, float64(1+i*6+j)/8)
		}
	}
	cases["allDistinct"] = tc{6, SparseEncode(distinct)}
	a, b := Pair{Col: 0, Val: 5}, Pair{Col: 2, Val: -1.5}
	cases["selfReference"] = tc{3, []SparseRow{
		{a, a, a},
		{b, a, a, a, a},
		{},
		{a, b, a, b, a, b, a},
		{b, b, b, b, b, b},
	}}
	return cases
}

func TestLeanTreeMatchesPairKeyedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1300))
	workerCounts := []int{0, 1, 2, 7}
	for name, c := range oracleCases(rng) {
		I, D := PrefixTreeEncode(c.rows)
		for _, variant := range []Variant{Full, SparseLogical} {
			b := &Batch{rows: len(c.rows), cols: c.cols, variant: variant, i: I, d: flattenD(D)}
			if err := b.validateLogical(); err != nil {
				t.Fatalf("%s: encoder output rejected: %v", name, err)
			}
			tag := fmt.Sprintf("%s/%v", name, variant)
			want := oracleBuild(b.i, b.d)

			lean := new(treeArena).build(b.i, b.d)
			if lean.Len() != len(want.Key) {
				t.Fatalf("%s: lean tree has %d nodes, oracle %d", tag, lean.Len(), len(want.Key))
			}
			for i := 1; i < lean.Len(); i++ {
				if lean.Parent[i] != want.Parent[i] || b.i[lean.KeyIdx[i]-1] != want.Key[i] {
					t.Fatalf("%s: node %d = key %v parent %d, oracle key %v parent %d", tag, i,
						b.i[lean.KeyIdx[i]-1], lean.Parent[i], want.Key[i], want.Parent[i])
				}
			}

			p := 1 + rng.Intn(6)
			vr, vl := randVec(rng, b.cols), randVec(rng, b.rows)
			// Zeros of both signs make some products -0, the one value
			// for which "+ H[root]" is not the identity.
			for j := 0; j < len(vr); j += 3 {
				vr[j] = math.Copysign(0, float64(j%2)-0.5)
			}
			mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.rows)
			fillRand(rng, mr)
			fillRand(rng, ml)
			wantMulVec := want.mulVec(b.d, vr)
			wantVecMul := want.vecMul(b.d, vl, b.cols)
			wantMulMat := want.mulMat(b.d, mr).Data()
			wantMatMul := want.matMul(b.d, ml, b.cols).Data()

			check := func(entry string, mulVec, vecMul, mulMat, matMul []float64) {
				t.Helper()
				for _, k := range []struct {
					kernel    string
					got, want []float64
				}{
					{"MulVec", mulVec, wantMulVec}, {"VecMul", vecMul, wantVecMul},
					{"MulMat", mulMat, wantMulMat}, {"MatMul", matMul, wantMatMul},
				} {
					if !bitsEqual(k.got, k.want) {
						t.Fatalf("%s: %s %s differs from the oracle", tag, entry, k.kernel)
					}
				}
			}
			check("per-op", b.MulVec(vr), b.VecMul(vl), b.MulMat(mr).Data(), b.MatMul(ml).Data())
			plan := b.NewKernelPlan()
			for _, w := range workerCounts {
				check(fmt.Sprintf("plan workers=%d", w), plan.MulVecInto(nil, vr, w), plan.VecMulInto(nil, vl, w),
					plan.MulMatInto(nil, mr, w).Data(), plan.MatMulInto(nil, ml, w).Data())
				check(fmt.Sprintf("plan workers=%d into dirty dst", w),
					plan.MulVecInto(dirtyVec(b.rows), vr, w), plan.VecMulInto(dirtyVec(b.cols), vl, w),
					plan.MulMatInto(dirtyMat(b.rows, p), mr, w).Data(), plan.MatMulInto(dirtyMat(p, b.cols), ml, w).Data())
			}
			plan.Release()

			// Decode writes each code's sequence into its row; with the
			// oracle's keys that is a plain walk up the parents.
			dec := matrix.NewDense(b.rows, b.cols)
			for i := 0; i < b.rows; i++ {
				for _, n := range b.d.row(i) {
					for idx := n; idx != 0; idx = want.Parent[idx] {
						dec.Set(i, int(want.Key[idx].Col), want.Key[idx].Val)
					}
				}
			}
			if !b.Decode().Equal(dec) {
				t.Fatalf("%s: Decode differs from the oracle", tag)
			}
		}
	}
}

// A released plan refuses every call until the pool hands it to a new
// owner, and releasing it twice in a row is harmless.
func TestKernelPlanReleaseLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1310))
	for name, b := range rightMulBatches(rng, 20, 6) {
		plan := b.NewKernelPlan()
		v := randVec(rng, 6)
		want := b.MulVec(v)
		if !bitsEqual(plan.MulVecInto(nil, v, 1), want) {
			t.Fatalf("%s: plan MulVecInto differs before Release", name)
		}
		plan.Release()
		plan.Release()
		for kernel, call := range map[string]func(){
			"Batch":      func() { plan.Batch() },
			"MulVecInto": func() { plan.MulVecInto(nil, v, 1) },
			"VecMulInto": func() { plan.VecMulInto(nil, randVec(rng, 20), 2) },
			"MulMatInto": func() { plan.MulMatInto(nil, matrix.NewDense(6, 2), 1) },
			"MatMulInto": func() { plan.MatMulInto(nil, matrix.NewDense(2, 20), 2) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); msg != "core: KernelPlan used after Release" {
						t.Fatalf("%s: %s on a released plan: recovered %q, want the use-after-Release panic", name, kernel, msg)
					}
				}()
				call()
			}()
		}
		// The pool may hand the same memory straight back; the new plan
		// is a live one for its own batch.
		again := b.NewKernelPlan()
		if !bitsEqual(again.MulVecInto(nil, v, 2), want) {
			t.Fatalf("%s: plan built after a Release differs", name)
		}
		again.Release()
	}
}
