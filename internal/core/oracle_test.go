package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"toc/internal/bitpack"
	"toc/internal/data"
	"toc/internal/matrix"
)

// The oracle: Algorithm 2 exactly as the paper writes it — the full tree
// in the paper's numbering, every node's key stored as a Pair, built with
// the Pair-valued F array from D as Algorithm 1 emitted it — and the four
// Table 1 kernels as textbook loops over it, no unrolling, no sharding,
// no first-layer indirection, no node left out. The lean 8-byte live-only
// tree of a Batch's resident form and both entry points built on it (the
// per-op Batch methods and KernelPlan's Into methods at any worker count,
// allocating or into a caller-owned dst) must reproduce the oracle's
// bits, and Decode its sequences.

type oracleTree struct {
	Key    []Pair
	Parent []uint32
}

func oracleBuild(I []Pair, D dTable) *oracleTree {
	size := treeSize(len(I), D)
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

// splitI is I as PrefixTreeEncode returns it, split into a batch's column
// and value arrays.
func splitI(I []Pair) firstLayer {
	f := firstLayer{col: make([]uint32, len(I)), val: make([]float64, len(I))}
	for k, p := range I {
		f.col[k], f.val[k] = p.Col, p.Val
	}
	return f
}

// seq is the pair sequence node idx represents (§3.1.1).
func (t *oracleTree) seq(idx uint32) []Pair {
	var seq []Pair
	for i := idx; i != 0; i = t.Parent[i] {
		seq = append([]Pair{t.Key[i]}, seq...)
	}
	return seq
}

// logicalCase is a batch in resident form beside the D Algorithm 1
// emitted for it, which is what the oracle runs on.
type logicalCase struct {
	b     *Batch
	paper dTable
}

// newLogicalCase makes the batch of (I, D) as PrefixTreeEncode returns
// them through the one constructor.
func newLogicalCase(t testing.TB, tag string, rows, cols int, v Variant, I []Pair, D [][]uint32) logicalCase {
	t.Helper()
	b := new(Batch)
	if err := newLogical(b, rows, cols, v, splitI(I), flattenD(D), nil); err != nil {
		t.Fatalf("%s: encoder output rejected: %v", tag, err)
	}
	new(encoder).sizeImage(b)
	return logicalCase{b: b, paper: flattenD(D)}
}

// compressedCase is Compress(m) beside Algorithm 1's D for m.
func compressedCase(m *matrix.Dense) logicalCase {
	_, D := PrefixTreeEncode(SparseEncode(m))
	return logicalCase{b: Compress(m), paper: flattenD(D)}
}

// residentCodes returns D′ widened to uint32, whichever width the batch
// holds it in.
func residentCodes(b *Batch) []uint32 {
	if b.d.isWide() {
		return b.d.wide
	}
	out := make([]uint32, len(b.d.narrow))
	for k, n := range b.d.narrow {
		out[k] = uint32(n)
	}
	return out
}

// written is the image Serialize writes from b's resident form, whether
// or not b aliases one.
func written(b *Batch) []byte {
	c := *b
	c.img = nil
	return c.Serialize()
}

// paperCodes is D′ mapped back to the paper's numbering through the
// inverse map.
func paperCodes(b *Batch) []uint32 {
	return new(encoder).paperD(b)
}

// paperImage writes the image of b's first layer and tuple starts with
// nodes, in the paper's numbering, as its codes: any D, valid or not.
func paperImage(b *Batch, nodes []uint32) []byte {
	return new(encoder).image(b, nodes, maxOf(nodes))
}

// maxOf returns the largest of vals, zero for none.
func maxOf(vals []uint32) uint32 {
	var top uint32
	for _, v := range vals {
		top = max(top, v)
	}
	return top
}

// paperIDs replays the creation bitmap into the paper's number of every
// live node, indexed by live id (entry 0 is the root), checking the
// resident-form invariants on the way: a bit is set only at a non-final
// position of its tuple, the bitmap's population is d.live, every id in
// D′ is in 1..|I|+live, and D′ is 16 bits a code iff the live tree has
// at most 1<<16 nodes.
func paperIDs(t testing.TB, tag string, b *Batch) []uint32 {
	t.Helper()
	d := b.d
	nodes := residentCodes(b)
	if (d.narrow == nil) == (d.wide == nil) {
		t.Fatalf("%s: D′ has both widths or neither", tag)
	}
	if size := 1 + b.i.len() + d.live; d.isWide() != (size > 1<<16) {
		t.Fatalf("%s: live tree of %d nodes holds D′ wide=%v", tag, size, d.isWide())
	}
	if want := (len(nodes) + 63) / 64; len(d.created) != want {
		t.Fatalf("%s: creation bitmap has %d words for |D| = %d, want %d", tag, len(d.created), len(nodes), want)
	}
	ids := make([]uint32, b.i.len()+1, b.i.len()+1+d.live)
	for k := range ids {
		ids[k] = uint32(k)
	}
	set, next := 0, uint32(b.i.len())+1
	for r := 0; r+1 < len(d.starts); r++ {
		for q := int(d.starts[r]); q < int(d.starts[r+1]); q++ {
			bit := d.created[q>>6]>>(q&63)&1 != 0
			if q+1 == int(d.starts[r+1]) {
				if bit {
					t.Fatalf("%s: creation bit set at %d, the final position of tuple %d", tag, q, r)
				}
				continue
			}
			if bit {
				ids = append(ids, next)
				set++
			}
			next++
		}
	}
	pop := 0
	for _, w := range d.created {
		pop += bits.OnesCount64(w)
	}
	if pop != set || pop != d.live {
		t.Fatalf("%s: bitmap population %d (%d at creating positions), live count %d", tag, pop, set, d.live)
	}
	for k, n := range nodes {
		if n == 0 || int(n) > b.i.len()+d.live {
			t.Fatalf("%s: D position %d holds id %d, outside 1..%d", tag, k, n, b.i.len()+d.live)
		}
	}
	return ids
}

// checkResidentForm checks everything a batch's resident form promises
// against the oracle tree of paper, D in the paper's numbering: the
// numbering covers exactly the nodes D reaches by parent walks, in
// order; D maps back to paper position by position; the live-only tree
// is the oracle's restricted to those nodes; Decode gives the oracle's
// sequences; the image written through the inverse map is the one
// Algorithm 1's D gives and the batch's own; and the image round-trips
// byte for byte, with CompressedSize its length, from the batch and from
// a scaled one.
func checkResidentForm(t testing.TB, tag string, b *Batch, paper dTable) {
	t.Helper()
	ids := paperIDs(t, tag, b)
	want := oracleBuild(b.i.pairs(), paper)
	reach := make([]bool, len(want.Key))
	for _, n := range paper.Nodes {
		for i := n; i != 0 && !reach[i]; i = want.Parent[i] {
			reach[i] = true
		}
	}
	reachable := []uint32{0}
	for i, ok := range reach {
		if ok {
			reachable = append(reachable, uint32(i))
		}
	}
	if !reflect.DeepEqual(ids, reachable) {
		t.Fatalf("%s: numbered nodes %v, reachable from D %v", tag, ids[1:], reachable[1:])
	}
	if !slices.Equal(b.d.starts, paper.Starts) {
		t.Fatalf("%s: tuple starts %v, want %v", tag, b.d.starts, paper.Starts)
	}
	for k, n := range residentCodes(b) {
		if ids[n] != paper.Nodes[k] {
			t.Fatalf("%s: D position %d holds live id %d = paper node %d, Algorithm 1 emitted %d", tag, k, n, ids[n], paper.Nodes[k])
		}
	}
	if got := paperCodes(b); !slices.Equal(got, paper.Nodes) {
		t.Fatalf("%s: the inverse map gives %v, Algorithm 1 emitted %v", tag, got, paper.Nodes)
	}

	lean := b.buildTree()
	if lean.Len() != len(ids) {
		t.Fatalf("%s: lean tree has %d nodes, %d are live", tag, lean.Len(), len(ids))
	}
	for i := 1; i < lean.Len(); i++ {
		// Keys compare by bits: a NaN value is a pair like any other.
		k, key := lean.KeyIdx[i]-1, want.Key[ids[i]]
		if ids[lean.Parent[i]] != want.Parent[ids[i]] || b.i.col[k] != key.Col || math.Float64bits(b.i.val[k]) != math.Float64bits(key.Val) {
			t.Fatalf("%s: live node %d (paper %d) = key %d:%v parent %d, oracle key %v parent %d", tag, i, ids[i],
				b.i.col[k], b.i.val[k], ids[lean.Parent[i]], want.Key[ids[i]], want.Parent[ids[i]])
		}
	}

	// Decode writes each code's sequence into its row; with the oracle's
	// keys that is a plain walk up the parents.
	dec := matrix.NewDense(b.rows, b.cols)
	for i := 0; i < b.rows; i++ {
		for _, n := range paper.row(i) {
			for idx := n; idx != 0; idx = want.Parent[idx] {
				dec.Set(i, int(want.Key[idx].Col), want.Key[idx].Val)
			}
		}
	}
	if got := b.Decode(); got.Rows() != b.rows || got.Cols() != b.cols || !bitsEqual(got.Data(), dec.Data()) {
		t.Fatalf("%s: Decode differs from the oracle", tag)
	}

	// The image written through the inverse map is the one written from
	// Algorithm 1's D: the canonical image of (I, D), which a batch that
	// keeps no image serializes to. One Deserialize made returns the bytes
	// it was read from, which may be any image of the same (I, D) (readFull
	// states the accepted language): the canonical bytes, or others no
	// shorter that read back as the same batch. (Scale itself may change a
	// NaN's bits.)
	if b.d.top != maxOf(paper.Nodes) {
		t.Fatalf("%s: the resident D's largest code is %d, Algorithm 1's %d", tag, b.d.top, maxOf(paper.Nodes))
	}
	canon := written(b)
	if want := paperImage(b, paper.Nodes); !bytes.Equal(canon, want) {
		t.Fatalf("%s: the image written through the inverse map differs from Algorithm 1's", tag)
	}
	scaled := b.Scale(2)
	imgs := []struct {
		name string
		of   *Batch
		img  []byte
	}{{"batch's image", b, b.Serialize()}, {"scaled batch's image", scaled, scaled.Serialize()}}
	for _, c := range imgs {
		if c.of.CompressedSize() != len(c.img) {
			t.Fatalf("%s: the %s is %d bytes, CompressedSize %d", tag, c.name, len(c.img), c.of.CompressedSize())
		}
	}
	switch {
	case b.img == nil && !bytes.Equal(canon, imgs[0].img):
		t.Fatalf("%s: the image written through the inverse map differs from the batch's", tag)
	case b.img != nil && &imgs[0].img[0] != &b.img[0]:
		t.Fatalf("%s: a deserialized batch does not return the image it was read from", tag)
	case b.img != nil && !bytes.Equal(canon, b.img):
		if len(canon) > len(b.img) {
			t.Fatalf("%s: the canonical image is %d bytes, the non-canonical one read %d", tag, len(canon), len(b.img))
		}
		imgs = append(imgs, imgs[0])
		imgs[2].name, imgs[2].img = "canonical image", canon
	}
	for _, c := range imgs {
		back, err := Deserialize(c.img)
		if err != nil {
			t.Fatalf("%s: the %s is rejected: %v", tag, c.name, err)
		}
		if back.d.isWide() != b.d.isWide() || !slices.Equal(residentCodes(back), residentCodes(b)) ||
			!slices.Equal(back.d.starts, b.d.starts) || !slices.Equal(back.d.created, b.d.created) ||
			back.d.live != b.d.live || back.d.top != b.d.top {
			t.Fatalf("%s: the %s deserializes to another resident D", tag, c.name)
		}
		if !slices.Equal(back.i.col, c.of.i.col) || !bitsEqual(back.i.val, c.of.i.val) {
			t.Fatalf("%s: the %s deserializes to another I", tag, c.name)
		}
		if !bytes.Equal(written(back), written(c.of)) {
			t.Fatalf("%s: the %s does not round-trip to the canonical image byte for byte", tag, c.name)
		}
	}
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
			tag := fmt.Sprintf("%s/%v", name, variant)
			lc := newLogicalCase(t, tag, len(c.rows), c.cols, variant, I, D)
			b, paper := lc.b, lc.paper
			want := oracleBuild(b.i.pairs(), paper)
			checkResidentForm(t, tag, b, paper)

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
			wantMulVec := want.mulVec(paper, vr)
			wantVecMul := want.vecMul(paper, vl, b.cols)
			wantMulMat := want.mulMat(paper, mr).Data()
			wantMatMul := want.matMul(paper, ml, b.cols).Data()

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

// The encode-side oracle: Algorithm 1 exactly as the paper writes it — an
// encoding tree C with AddNode and GetIndex over one Go map from (parent
// index, child key) to child index, LongestMatchFromTree probing it from
// the root for every element — and Figure 3's physical layout written
// through bitpack.Pack and a float-keyed dictionary. It is what Compress
// ran before the pooled open-addressed encoder; the encoder must
// reproduce its I, D and image bytes.

type oracleChildKey struct {
	parent uint32
	key    Pair
}

type oracleEncodeTree struct {
	keys     []Pair // keys[i] is the key of node i; keys[0] (root) is unused
	children map[oracleChildKey]uint32
}

// AddNode creates a node with key k as a child of node n and returns its
// index (the next sequence number).
func (t *oracleEncodeTree) AddNode(n uint32, k Pair) uint32 {
	idx := uint32(len(t.keys))
	t.keys = append(t.keys, k)
	t.children[oracleChildKey{parent: n, key: k}] = idx
	return idx
}

// GetIndex looks up the child of node n with key k (the paper's API
// returns -1 when there is none).
func (t *oracleEncodeTree) GetIndex(n uint32, k Pair) (uint32, bool) {
	idx, ok := t.children[oracleChildKey{parent: n, key: k}]
	return idx, ok
}

func oracleEncode(b []SparseRow) (I []Pair, D [][]uint32) {
	c := &oracleEncodeTree{keys: make([]Pair, 1), children: map[oracleChildKey]uint32{}}
	// Phase I (lines 5-8).
	for _, t := range b {
		for _, p := range t {
			if _, ok := c.GetIndex(0, p); !ok {
				c.AddNode(0, p)
			}
		}
	}
	I = append([]Pair{}, c.keys[1:]...)
	// Phase II (lines 9-17).
	D = make([][]uint32, len(b))
	for ti, t := range b {
		d := []uint32{}
		for i := 0; i < len(t); {
			n, j := oracleLongestMatch(t, i, c)
			d = append(d, n)
			if j < len(t) {
				c.AddNode(n, t[j])
			}
			i = j
		}
		D[ti] = d
	}
	return I, D
}

// oracleLongestMatch is LongestMatchFromTree (lines 21-34): the longest
// sequence in the tree matching t from position i, and where it ends.
func oracleLongestMatch(t SparseRow, i int, c *oracleEncodeTree) (n uint32, j int) {
	j = i
	next, ok := c.GetIndex(0, t[j])
	if !ok {
		panic("oracle: pair missing from prefix tree first layer")
	}
	for {
		n = next
		j++
		if j < len(t) {
			next, ok = c.GetIndex(n, t[j])
		} else {
			ok = false
		}
		if !ok {
			return n, j
		}
	}
}

func flattenD(D [][]uint32) dTable {
	d := dTable{Nodes: []uint32{}, Starts: make([]uint32, 0, len(D)+1)}
	for _, row := range D {
		d.Starts = append(d.Starts, uint32(len(d.Nodes)))
		d.Nodes = append(d.Nodes, row...)
	}
	d.Starts = append(d.Starts, uint32(len(d.Nodes)))
	return d
}

// oracleFullImage is the Full image of b with D's node indexes given in
// the paper's numbering.
func oracleFullImage(b *Batch, nodes []uint32) []byte {
	occ := make([]uint32, b.i.len())
	var dict []float64
	lookup := map[float64]uint32{}
	for k, v := range b.i.val {
		idx, ok := lookup[v]
		if !ok {
			idx = uint32(len(dict))
			dict = append(dict, v)
			lookup[v] = idx
		}
		occ[k] = idx
	}
	out := make([]byte, headerSize)
	b.putHeader(out)
	out = bitpack.Pack(b.i.col).AppendTo(out)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dict)))
	for _, v := range dict {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	out = bitpack.Pack(occ).AppendTo(out)
	out = bitpack.Pack(nodes).AppendTo(out)
	return bitpack.Pack(b.d.starts).AppendTo(out)
}

// checkAgainstMapOracle encodes the sparse table both ways and compares
// I, D and the Full image; got, when non-nil, is a Batch Compress built
// from the same table, whose retained arrays and image must agree too.
func checkAgainstMapOracle(t *testing.T, tag string, cols int, rows []SparseRow, got *Batch) {
	t.Helper()
	wantI, wantD := oracleEncode(rows)
	I, D := PrefixTreeEncode(rows)
	if !reflect.DeepEqual(I, wantI) {
		t.Fatalf("%s: I differs from the map oracle:\n got %v\nwant %v", tag, I, wantI)
	}
	if !reflect.DeepEqual(D, wantD) {
		t.Fatalf("%s: D differs from the map oracle:\n got %v\nwant %v", tag, D, wantD)
	}
	want := newLogicalCase(t, tag, len(rows), cols, Full, wantI, wantD)
	wantImg := oracleFullImage(want.b, want.paper.Nodes)
	if got == nil {
		got = newLogicalCase(t, tag, len(rows), cols, Full, I, D).b
	}
	// The batch keeps D in live numbering; the inverse map reads it back
	// as Algorithm 1 emitted it.
	gotNodes := paperCodes(got)
	if !reflect.DeepEqual(got.i.pairs(), wantI) || !slices.Equal(gotNodes, want.paper.Nodes) ||
		!slices.Equal(got.d.starts, want.paper.Starts) {
		t.Fatalf("%s: the batch's (I, D) differs from the map oracle", tag)
	}
	if img := paperImage(got, gotNodes); !bytes.Equal(img, wantImg) {
		t.Fatalf("%s: image is %d bytes, differs from the map oracle's %d", tag, len(img), len(wantImg))
	}
	if !bytes.Equal(got.Serialize(), wantImg) || got.CompressedSize() != len(wantImg) {
		t.Fatalf("%s: Serialize() differs from the map oracle, or CompressedSize from its length", tag)
	}
}

func TestEncoderMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1800))
	for name, c := range oracleCases(rng) {
		checkAgainstMapOracle(t, name, c.cols, c.rows, nil)
	}
	for k := 0; k < 30; k++ {
		rows, cols := 1+rng.Intn(120), 1+rng.Intn(40)
		m := redundantMatrix(rng, rows, cols, 0.05+0.9*rng.Float64(), 1+rng.Intn(8))
		checkAgainstMapOracle(t, fmt.Sprintf("redundant%d %dx%d", k, rows, cols), cols, SparseEncode(m), Compress(m))
	}
	// The benchmark's batch shape, 40 batches of each generator the
	// workloads ingest: consecutive batches run through one pooled
	// encoder, so this is also where a stale table or hint would show.
	const batch, batches = 250, 40
	for _, name := range []string{"imagenet", "mnist"} {
		ds, err := data.Generate(name, batch*batches, 7)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < batches; k++ {
			m, _ := ds.Batch(k, batch)
			checkAgainstMapOracle(t, fmt.Sprintf("%s batch %d", name, k), m.Cols(), SparseEncode(m), Compress(m))
		}
	}
}
