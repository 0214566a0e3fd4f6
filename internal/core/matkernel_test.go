package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"toc/internal/data"
	"toc/internal/matrix"
	"toc/internal/testutil"
)

// A·M and M·A evaluate only the live part of C', a panel of the p
// dimension at a time, on scratch nothing ever initializes for them. The
// tests here pin what that rests on: the live list is exactly the set of
// nodes D can reach, every panel shape terminates on the oracle's bits,
// no row of H is read before the call at hand wrote it, and H no longer
// grows with p.

// logicalCases is the oracle table as Full and SparseLogical batches.
func logicalCases(t *testing.T, rng *rand.Rand) map[string]*Batch {
	batches := map[string]*Batch{}
	for name, c := range oracleCases(rng) {
		I, D := PrefixTreeEncode(c.rows)
		for _, variant := range []Variant{Full, SparseLogical} {
			b := &Batch{rows: len(c.rows), cols: c.cols, variant: variant, i: I, d: flattenD(D)}
			if err := b.validateLogical(); err != nil {
				t.Fatalf("%s: encoder output rejected: %v", name, err)
			}
			batches[fmt.Sprintf("%s/%v", name, variant)] = b
		}
	}
	return batches
}

// Every width the panel loop can meet — none, one column, one short of a
// panel, a panel, one over, two panels and a ragged third — at worker
// counts below, at and above the panel count, into a dirty dst.
func TestMatrixKernelsPanelEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2000))
	const w = panelWidth
	for name, b := range logicalCases(t, rng) {
		want := oracleBuild(b.i, b.d)
		plan := b.NewKernelPlan()
		for _, p := range []int{0, 1, w - 1, w, w + 1, 2*w + 3} {
			mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.rows)
			fillRand(rng, mr)
			fillRand(rng, ml)
			wantMulMat := want.mulMat(b.d, mr).Data()
			wantMatMul := want.matMul(b.d, ml, b.cols).Data()
			for _, workers := range []int{0, 1, 2, 7} {
				if got := plan.MulMatInto(dirtyMat(b.rows, p), mr, workers); !bitsEqual(got.Data(), wantMulMat) {
					t.Fatalf("%s p=%d workers=%d: MulMatInto differs from the oracle", name, p, workers)
				}
				if got := plan.MatMulInto(dirtyMat(p, b.cols), ml, workers); !bitsEqual(got.Data(), wantMatMul) {
					t.Fatalf("%s p=%d workers=%d: MatMulInto differs from the oracle", name, p, workers)
				}
			}
		}
		plan.Release()
	}
}

// The live list is the set of nodes some code of D reaches by walking
// parent links, in ascending order — no more, or a kernel does dead
// work; no less, or it reads a row of H it never wrote.
func TestLiveNodesAreExactlyTheReachableOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(2010))
	batches := logicalCases(t, rng)
	for k := 0; k < 20; k++ {
		rows, cols := 1+rng.Intn(120), 1+rng.Intn(40)
		m := redundantMatrix(rng, rows, cols, 0.05+0.9*rng.Float64(), 1+rng.Intn(8))
		batches[fmt.Sprintf("redundant%d %dx%d", k, rows, cols)] = Compress(m)
	}
	sc := new(opScratch)
	for name, b := range batches {
		tree := new(treeArena).build(b.i, b.d)
		reach := make([]bool, tree.Len())
		for _, n := range b.d.Nodes {
			for i := n; i != 0 && !reach[i]; i = tree.Parent[i] {
				reach[i] = true
			}
		}
		want := []uint32{}
		for i, ok := range reach {
			if ok {
				want = append(want, uint32(i))
			}
		}
		// Twice on one scratch: the second call starts from the first's
		// marks and list.
		for pass := 0; pass < 2; pass++ {
			if got := sc.liveNodes(tree, b.d); !reflect.DeepEqual(append([]uint32{}, got...), want) {
				t.Fatalf("%s pass %d: live nodes %v, reachable from D %v", name, pass, got, want)
			}
		}
	}
}

// poisonScratch makes every byte the pooled scratch owns hostile: NaN in
// both float arenas, set marks, out-of-range node indexes.
func poisonScratch(sc *opScratch) {
	for _, arena := range [][]float64{sc.floats[:cap(sc.floats)], sc.gather[:cap(sc.gather)]} {
		for i := range arena {
			arena[i] = math.NaN()
		}
	}
	mark, live := sc.mark[:cap(sc.mark)], sc.live[:cap(sc.live)]
	for i := range mark {
		mark[i] = 0xff
	}
	for i := range live {
		live[i] = math.MaxUint32
	}
}

// H is uninitialized outside the rows a call writes. With the one pooled
// scratch grown past every case and refilled with NaN before each call,
// a kernel that read a dead row, a row of another panel's stride or a
// stale mark would carry the NaN into its result.
func TestMatrixKernelsOnPoisonedScratch(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the poisoned scratch may not be the one a kernel gets")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // one P, one pool shard
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection empties the pool mid-run
	rng := rand.New(rand.NewSource(2020))
	const p = 2*panelWidth + 3

	// Grow one scratch on a throwaway batch larger than any case, so no
	// call below has to make (zeroed) memory of its own.
	big := Compress(redundantMatrix(rng, 400, 40, 0.7, 6))
	plan := big.NewKernelPlan()
	bigLen := plan.tree.Len()
	plan.MulMatInto(nil, matrix.NewDense(big.cols, p), 7)
	plan.MatMulInto(nil, matrix.NewDense(p, big.rows), 7)
	plan.Release()
	poisoned := scratchPool.Get().(*opScratch)
	scratchPool.Put(poisoned)

	for name, b := range logicalCases(t, rng) {
		if treeSize(b.i, b.d) > bigLen || b.cols > big.cols {
			t.Fatalf("%s: case outgrows the throwaway batch", name)
		}
		want := oracleBuild(b.i, b.d)
		mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.rows)
		fillRand(rng, mr)
		fillRand(rng, ml)
		wantMulMat := want.mulMat(b.d, mr).Data()
		wantMatMul := want.matMul(b.d, ml, b.cols).Data()
		plan := b.NewKernelPlan()
		for _, workers := range []int{1, 2} {
			poisonScratch(poisoned)
			if got := plan.MulMatInto(nil, mr, workers); !bitsEqual(got.Data(), wantMulMat) {
				t.Fatalf("%s workers=%d: MulMatInto on poisoned scratch differs from the oracle", name, workers)
			}
			poisonScratch(poisoned)
			if got := plan.MatMulInto(nil, ml, workers); !bitsEqual(got.Data(), wantMatMul) {
				t.Fatalf("%s workers=%d: MatMulInto on poisoned scratch differs from the oracle", name, workers)
			}
		}
		plan.Release()
		if sc := scratchPool.Get().(*opScratch); sc != poisoned {
			t.Fatalf("%s: the pool handed out a scratch other than the poisoned one", name)
		}
		scratchPool.Put(poisoned)
	}
}

// Algorithm 8 as written adds key.Val·G for every node of C', so a node
// nothing references, G exactly 0, whose key value is ±Inf or NaN puts
// Inf·0 = NaN into a result column the dense kernel leaves finite or
// infinite. Visiting live nodes only, M·A no longer does: on which
// elements are NaN, and on every infinite one, both matrix kernels agree
// with the dense ones. (Finite elements are the oracle tests' business.)
func TestMatrixKernelsNonFiniteMatchDense(t *testing.T) {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff0000000000abc)
	denormal := math.SmallestNonzeroFloat64
	// Row 0's +Inf follows a nonzero cell, so encoding it adds the node
	// (0:2.5 → 1:+Inf) — and no other tuple starts 2.5, +Inf, so that
	// node is dead. The same goes for the NaNs and the -Inf behind 1.5.
	a := matrix.NewDenseFromRows([][]float64{
		{2.5, math.Inf(1), 0, 0, denormal, 0.5},
		{1.5, 0, math.Inf(-1), 0, 0, 0.5},
		{1.5, 0, 0, nanA, math.MaxFloat64, 0.5},
		{0, 0, 0, 0, -denormal, 0.5},
		{1.5, 0, math.Inf(-1), nanB, 0, 0},
		{0, math.Inf(1), 0, 0, 3 * denormal, 0.5},
	})
	rng := rand.New(rand.NewSource(2030))
	const p = 5
	mr, ml := matrix.NewDense(a.Cols(), p), matrix.NewDense(p, a.Rows())
	for _, m := range []*matrix.Dense{mr, ml} {
		for i := range m.Data() {
			m.Data()[i] = 0.25 + rng.Float64() // positive: no product is 0·Inf, no sum Inf-Inf but where A has both
		}
	}
	agree := func(tag string, got, want *matrix.Dense) {
		t.Helper()
		nans := 0
		for i, g := range got.Data() {
			w := want.Data()[i]
			if math.IsNaN(g) != math.IsNaN(w) || (math.IsInf(w, 0) && g != w) {
				t.Errorf("%s: element %d is %v, dense kernel has %v", tag, i, g, w)
			}
			if math.IsNaN(g) {
				nans++
			}
		}
		if nans == 0 || nans == len(got.Data()) {
			t.Errorf("%s: %d of %d elements NaN; the case should have both kinds", tag, nans, len(got.Data()))
		}
	}
	for _, variant := range []Variant{Full, SparseLogical} {
		b := CompressVariant(a, variant)
		plan := b.NewKernelPlan()
		live := make([]bool, plan.tree.Len())
		for _, i := range new(opScratch).liveNodes(plan.tree, b.d) {
			live[i] = true
		}
		deadNonFinite := false
		for i := 1; i < len(live); i++ {
			if v := b.i[plan.tree.KeyIdx[i]-1].Val; !live[i] && (math.IsInf(v, 0) || math.IsNaN(v)) {
				deadNonFinite = true
			}
		}
		if !deadNonFinite {
			t.Fatalf("%v: no dead node has a non-finite key; the case no longer exercises the deviation", variant)
		}
		for _, workers := range []int{1, 2} {
			agree(fmt.Sprintf("%v A·M workers=%d", variant, workers), plan.MulMatInto(nil, mr, workers), a.MulMat(mr))
			agree(fmt.Sprintf("%v M·A workers=%d", variant, workers), plan.MatMulInto(nil, ml, workers), a.MatMul(ml))
		}
		plan.Release()
	}
}

// The H scratch of a matrix kernel is one |C'|×panelWidth slab per
// worker, whatever p is (it was |C'|×p).
func TestMatrixKernelScratchIndependentOfP(t *testing.T) {
	rng := rand.New(rand.NewSource(2040))
	const p = 512
	b := Compress(redundantMatrix(rng, 64, 16, 0.9, 4))
	plan := b.NewKernelPlan()
	defer plan.Release()
	mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.rows)
	fillRand(rng, mr)
	fillRand(rng, ml)
	for _, workers := range []int{1, 2} {
		limit := workers * plan.tree.Len() * panelWidth
		sc := new(opScratch)
		b.mulMatTree(plan.tree, sc, mr, matrix.NewDense(b.rows, p), workers)
		if got := cap(sc.floats); got > limit {
			t.Errorf("A·M workers=%d at p=%d: H scratch holds %d floats, want <= %d (workers·|C'|·panelWidth)", workers, p, got, limit)
		}
		sc = new(opScratch)
		b.matMulTree(plan.tree, sc, ml, matrix.NewDense(p, b.cols), workers)
		if got := cap(sc.floats); got > limit {
			t.Errorf("M·A workers=%d at p=%d: H scratch holds %d floats, want <= %d (workers·|C'|·panelWidth)", workers, p, got, limit)
		}
	}
}

// BenchmarkMatrixKernels measures A·M and M·A into a caller-owned dst on
// one 250-row batch of the two benchmark generators at the NN's first
// hidden width, p = 200, reporting ns per nnz·p and the share of C' that
// is live. The claim it carries: visiting live nodes only, a panel at a
// time, at least halves both kernels. Measured on the 2-core 2.6 GHz
// Xeon, median of 7 × 60 iterations, ms/op at workers 1 | 2 — the full-H
// kernels (every node, |C'|×p H cleared per call), then these:
//
//	mnist    250×196  A·M 7.1 | 6.1 → 3.1 | 1.7   M·A 9.7 | 8.0 → 3.9 | 2.1
//	imagenet 250×180  A·M 3.5 | 2.8 → 1.5 | 0.9   M·A 4.4 | 3.5 → 2.2 | 1.3
func BenchmarkMatrixKernels(b *testing.B) {
	const rows, p = 250, 200
	for _, name := range []string{"mnist", "imagenet"} {
		ds, err := data.Generate(name, rows, 1)
		if err != nil {
			b.Fatal(err)
		}
		batch := Compress(ds.X)
		plan := batch.NewKernelPlan()
		liveShare := float64(len(new(opScratch).liveNodes(plan.tree, batch.d))) / float64(plan.tree.Len())
		work := float64(ds.X.NNZ() * p)
		mr, ml := matrix.NewDense(batch.cols, p), matrix.NewDense(p, rows)
		for i := range mr.Data() {
			mr.Data()[i] = float64(i%17) - 8
		}
		for i := range ml.Data() {
			ml.Data()[i] = float64(i%13) - 6
		}
		dr, dl := matrix.NewDense(rows, p), matrix.NewDense(p, batch.cols)
		for _, workers := range []int{1, 2} {
			for _, k := range []struct {
				kernel string
				call   func()
			}{
				{"MulMat", func() { plan.MulMatInto(dr, mr, workers) }},
				{"MatMul", func() { plan.MatMulInto(dl, ml, workers) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", name, k.kernel, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.call()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/work, "ns/nnz·p")
					b.ReportMetric(liveShare, "live/|C'|")
				})
			}
		}
		plan.Release()
	}
}
