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

// The kernels evaluate only the live part of C' — a batch's tree holds
// nothing else — and A·M and M·A a panel of the p dimension at a time,
// on scratch nothing ever initializes for them. The tests here pin what
// that rests on: the batch's numbering is exactly the set of nodes D can
// reach, every panel shape terminates on the oracle's bits, no row of H
// is read before the call at hand wrote it, and H no longer grows with p.

// logicalCases is the oracle table as Full and SparseLogical batches.
func logicalCases(t *testing.T, rng *rand.Rand) map[string]logicalCase {
	cases := map[string]logicalCase{}
	for name, c := range oracleCases(rng) {
		I, D := PrefixTreeEncode(c.rows)
		for _, variant := range []Variant{Full, SparseLogical} {
			tag := fmt.Sprintf("%s/%v", name, variant)
			cases[tag] = newLogicalCase(t, tag, len(c.rows), c.cols, variant, I, D)
		}
	}
	return cases
}

// Every width the panel loop can meet — none, one column, one short of a
// panel, a panel, one over, two panels and a ragged third — at worker
// counts below, at and above the panel count, into a dirty dst.
func TestMatrixKernelsPanelEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2000))
	const w = panelWidth
	for name, c := range logicalCases(t, rng) {
		b := c.b
		want := oracleBuild(b.i.pairs(), c.paper)
		plan := b.NewKernelPlan()
		for _, p := range []int{0, 1, w - 1, w, w + 1, 2*w + 3} {
			mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.rows)
			fillRand(rng, mr)
			fillRand(rng, ml)
			wantMulMat := want.mulMat(c.paper, mr).Data()
			wantMatMul := want.matMul(c.paper, ml, b.cols).Data()
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

// A batch's numbering covers the set of nodes some code of D reaches by
// walking parent links in the oracle tree, in ascending order — no more,
// or a kernel does dead work; no less, or a code of D has no node — and
// the rest of the resident form follows from it (checkResidentForm).
func TestLiveNodesAreExactlyTheReachableOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(2010))
	cases := logicalCases(t, rng)
	for k := 0; k < 20; k++ {
		rows, cols := 1+rng.Intn(120), 1+rng.Intn(40)
		m := redundantMatrix(rng, rows, cols, 0.05+0.9*rng.Float64(), 1+rng.Intn(8))
		cases[fmt.Sprintf("redundant%d %dx%d", k, rows, cols)] = compressedCase(m)
	}
	dead := 0
	for name, c := range cases {
		checkResidentForm(t, name, c.b, c.paper)
		dead += treeSize(c.b.i.len(), c.paper) - c.b.buildTree().Len()
	}
	if dead == 0 {
		t.Fatal("no case has a dead node; the table no longer exercises the renumbering")
	}
}

// The shapes on which the renumbering has an edge to fall off: tuples
// that create nothing (empty, one element), a batch with no deep node at
// all, identical rows (one long match each after the first), bitmap
// words that end exactly at and one past a tuple boundary, and the
// self-referencing code — a tuple whose next code is the node its
// previous one just created.
func TestResidentFormEdgeShapes(t *testing.T) {
	a, b, c := Pair{Col: 0, Val: 5}, Pair{Col: 2, Val: -1.5}, Pair{Col: 1, Val: 0.25}
	long := func(n int) SparseRow { // n distinct pairs: a tuple that creates n-1 nodes
		row := make(SparseRow, n)
		for k := range row {
			row[k] = Pair{Col: uint32(k), Val: float64(k%7) + 1}
		}
		return row
	}
	for name, tc := range map[string]struct {
		cols int
		rows []SparseRow
	}{
		"noRows":        {3, nil},
		"emptyRows":     {3, []SparseRow{{}, {}, {}}},
		"oneElement":    {3, []SparseRow{{a}, {b}, {}, {a}, {c}}},
		"noDeepNode":    {3, []SparseRow{{a}, {}, {b}}},
		"identicalRows": {3, []SparseRow{{a, c, b}, {a, c, b}, {a, c, b}, {a, c, b}, {a, c, b}}},
		"selfReference": {1, []SparseRow{{a, a, a}}},
		"selfReferenceTwice": {3, []SparseRow{
			{a, a, a}, {b, a, a, a, a}, {}, {a, b, a, b, a, b, a}, {b, b, b, b, b, b},
		}},
		"wordBoundary64": {64, []SparseRow{long(64), long(64), long(3)}},
		"wordBoundary65": {65, []SparseRow{long(65), long(63), long(65)}},
		"wordBoundary63": {63, []SparseRow{long(63), {}, long(63), long(2), long(63)}},
	} {
		I, D := PrefixTreeEncode(tc.rows)
		for _, variant := range []Variant{Full, SparseLogical} {
			tag := fmt.Sprintf("%s/%v", name, variant)
			lc := newLogicalCase(t, tag, len(tc.rows), tc.cols, variant, I, D)
			checkResidentForm(t, tag, lc.b, lc.paper)
		}
	}
	// The paper's running example: D = {1,2,3,4 | 6,3 | 5,8 | 6} keeps
	// nodes 6 and 8 of the five it creates.
	ex := compressedCase(figure3Input())
	checkResidentForm(t, "figure3", ex.b, ex.paper)
	if ex.b.d.live != 2 || !reflect.DeepEqual(ex.b.d.created, []uint64{1<<0 | 1<<2}) {
		t.Fatalf("figure3: live deep nodes %d, creation bitmap %b; want 2 and positions 0, 2", ex.b.d.live, ex.b.d.created)
	}
}

// poisonScratch makes every byte the pooled scratch owns hostile: NaN in
// both float arenas.
func poisonScratch(sc *opScratch) {
	for _, arena := range [][]float64{sc.floats[:cap(sc.floats)], sc.gather[:cap(sc.gather)]} {
		for i := range arena {
			arena[i] = math.NaN()
		}
	}
}

// H is uninitialized outside the rows a call writes. With the one pooled
// scratch grown past every case and refilled with NaN before each call,
// a kernel that read a row it had not written or a row of another
// panel's stride would carry the NaN into its result.
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

	for name, c := range logicalCases(t, rng) {
		b := c.b
		// The slab is one row per live node.
		if 1+b.i.len()+b.d.live > bigLen || b.cols > big.cols {
			t.Fatalf("%s: case outgrows the throwaway batch", name)
		}
		want := oracleBuild(b.i.pairs(), c.paper)
		mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.rows)
		fillRand(rng, mr)
		fillRand(rng, ml)
		wantMulMat := want.mulMat(c.paper, mr).Data()
		wantMatMul := want.matMul(c.paper, ml, b.cols).Data()
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

// unreferencedFirstLayerImage is a well-formed SparseLogical image no
// Compress writes: its I holds a pair (1:+Inf) that no code of D reaches.
// Such a pair would keep its number in the resident form, the one node
// with G exactly 0, and v·A and M·A would turn it into Inf·0 = NaN in a
// column the decoded matrix has only zeros in.
func unreferencedFirstLayerImage() []byte {
	b := &Batch{rows: 2, cols: 3, variant: SparseLogical,
		i: splitI([]Pair{{0, 2.5}, {1, math.Inf(1)}, {2, 0.5}}),
		d: residentD{starts: []uint32{0, 2, 3}},
	}
	return paperImage(b, []uint32{1, 3, 1})
}

// Algorithms 5 and 8 as written add key.Val·G for every node of C', so a
// node nothing references, G exactly 0, whose key value is ±Inf or NaN
// puts Inf·0 = NaN into a result column the dense kernel leaves finite
// or infinite. A batch's tree holds no such node, so v·A and M·A do not:
// on which elements are NaN, and on every infinite one, all four kernels
// agree with the dense ones at every worker count. (Finite elements are
// the oracle tests' business.) The one dead node the renumbering could
// not leave out, an unreferenced first-layer pair, never gets in.
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
	vr, vl := make([]float64, a.Cols()), make([]float64, a.Rows())
	for _, operand := range [][]float64{mr.Data(), ml.Data(), vr, vl} {
		for i := range operand {
			operand[i] = 0.25 + rng.Float64() // positive: no product is 0·Inf, no sum Inf-Inf but where A has both
		}
	}
	agree := func(tag string, got, want []float64) {
		t.Helper()
		nans := 0
		for i, g := range got {
			w := want[i]
			if math.IsNaN(g) != math.IsNaN(w) || (math.IsInf(w, 0) && g != w) {
				t.Errorf("%s: element %d is %v, dense kernel has %v", tag, i, g, w)
			}
			if math.IsNaN(g) {
				nans++
			}
		}
		if nans == 0 || nans == len(got) {
			t.Errorf("%s: %d of %d elements NaN; the case should have both kinds", tag, nans, len(got))
		}
	}
	for _, variant := range []Variant{Full, SparseLogical} {
		b := CompressVariant(a, variant)
		// The full tree has a dead node with a non-finite key, or the
		// case no longer exercises the deviation.
		_, D := PrefixTreeEncode(SparseEncode(a))
		full := oracleBuild(b.i.pairs(), flattenD(D))
		referenced := map[uint32]bool{}
		for _, codes := range D {
			for _, n := range codes {
				referenced[n] = true
			}
		}
		deadNonFinite := false
		for i := 1; i < len(full.Key); i++ {
			if v := full.Key[i].Val; !referenced[uint32(i)] && (math.IsInf(v, 0) || math.IsNaN(v)) {
				deadNonFinite = true
			}
		}
		if !deadNonFinite {
			t.Fatalf("%v: no dead node has a non-finite key; the case no longer exercises the deviation", variant)
		}
		plan := b.NewKernelPlan()
		for _, workers := range []int{1, 2} {
			agree(fmt.Sprintf("%v A·v workers=%d", variant, workers), plan.MulVecInto(nil, vr, workers), a.MulVec(vr))
			agree(fmt.Sprintf("%v v·A workers=%d", variant, workers), plan.VecMulInto(nil, vl, workers), a.VecMul(vl))
			agree(fmt.Sprintf("%v A·M workers=%d", variant, workers), plan.MulMatInto(nil, mr, workers).Data(), a.MulMat(mr).Data())
			agree(fmt.Sprintf("%v M·A workers=%d", variant, workers), plan.MatMulInto(nil, ml, workers).Data(), a.MatMul(ml).Data())
		}
		plan.Release()
	}
	if _, err := Deserialize(unreferencedFirstLayerImage()); err == nil {
		t.Error("an image with an unreferenced first-layer pair was accepted; M·A would turn its +Inf key into Inf·0")
	}
}

// The H scratch of a matrix kernel is one |C'|×panelWidth slab per
// worker, |C'| counting live nodes only, whatever p is (it was |C'|×p
// over the full tree).
func TestMatrixKernelScratchIndependentOfP(t *testing.T) {
	rng := rand.New(rand.NewSource(2040))
	const p = 512
	b := Compress(redundantMatrix(rng, 64, 16, 0.9, 4))
	plan := b.NewKernelPlan()
	defer plan.Release()
	if plan.tree.Len() != 1+b.i.len()+b.d.live {
		t.Fatalf("plan tree has %d nodes, the batch 1+%d+%d live ones", plan.tree.Len(), b.i.len(), b.d.live)
	}
	mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.rows)
	fillRand(rng, mr)
	fillRand(rng, ml)
	for _, workers := range []int{1, 2} {
		limit := workers * (1 + b.i.len() + b.d.live) * panelWidth
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
//
// It is also the one place a kernel worker count is measured to pay (the
// vector kernels lost their forks for being slower than their sequential
// bodies at every shape). On the batch's live-only tree, same box, median
// of 8 × 60 iterations, ms/op at workers 1 | 2:
//
//	mnist    250×196  A·M 2.3 | 1.4   M·A 3.4 | 1.9
//	imagenet 250×180  A·M 1.2 | 0.7   M·A 1.9 | 1.2
func BenchmarkMatrixKernels(b *testing.B) {
	const rows, p = 250, 200
	for _, name := range []string{"mnist", "imagenet"} {
		ds, err := data.Generate(name, rows, 1)
		if err != nil {
			b.Fatal(err)
		}
		batch := Compress(ds.X)
		plan := batch.NewKernelPlan()
		_, D := PrefixTreeEncode(SparseEncode(ds.X))
		liveShare := float64(plan.tree.Len()) / float64(treeSize(batch.i.len(), flattenD(D)))
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
