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

// splitI is I as PrefixTreeEncode returns it, in the resident form
// Compress gives it for variant v of a rows×cols matrix: the words and
// dictionary, and rows+1 tuple starts carved with them.
func splitI(I []Pair, v Variant, rows, cols int) (firstLayer, []uint32) {
	e := new(encoder)
	for _, p := range I {
		e.col, e.val = append(e.col, p.Col), append(e.val, p.Val)
	}
	return e.resident(v, rows, cols)
}

// pairs returns a copy of I in the paper's layout, one Pair a
// first-layer node, each value looked up in the dictionary.
func (f *firstLayer) pairs() []Pair {
	I := make([]Pair, f.len())
	for k := range I {
		c, x := f.pair(k)
		I[k] = Pair{Col: c, Val: f.vals[x]}
	}
	return I
}

// sameFirstLayer reports whether two first layers are the same resident
// form: one width, the same words and a bitwise-equal dictionary.
func sameFirstLayer(a, b *firstLayer) bool {
	return a.isWide() == b.isWide() && slices.Equal(a.narrow, b.narrow) && slices.Equal(a.wide, b.wide) && bitsEqual(a.vals, b.vals)
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
	first, _ := splitI(I, v, rows, cols)
	b, err := newLogical(cols, v, first, flattenD(D))
	if err != nil {
		t.Fatalf("%s: encoder output rejected: %v", tag, err)
	}
	b.sizeImage()
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
	d := &b.d
	inv := make([]uint32, 1+b.i.len()+d.live)
	liveToPaper(inv, make([]uint64, len(d.created)), d.starts, d.created, b.i.len()+1)
	out := make([]uint32, d.len())
	if d.isWide() {
		paperNodes(out, d.wide, inv)
	} else {
		paperNodes(out, d.narrow, inv)
	}
	return out
}

// liveToPaper fills inv, of length 1+|I|+live, with the paper's number
// of every live id: first-layer nodes keep theirs, and the j-th set bit
// of the creation bitmap, at D position q, is live deep node j, which was
// paper node firstLayer+q-(tuple ends before q). ends, as long as
// created, is scratch for the bitmap of tuple ends, so each number is a
// population count.
func liveToPaper(inv []uint32, ends []uint64, starts []uint32, created []uint64, firstLayer int) {
	for k := range inv[:firstLayer] {
		inv[k] = uint32(k)
	}
	ends = ends[:len(created)]
	clear(ends)
	for r := 1; r < len(starts); r++ {
		if lo, hi := starts[r-1], starts[r]; lo < hi {
			ends[(hi-1)>>6] |= 1 << ((hi - 1) & 63)
		}
	}
	idx, base := firstLayer, firstLayer // base: firstLayer less the tuple ends before word wi
	for wi, w := range created {
		e := ends[wi]
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			inv[idx] = uint32(base + wi<<6 + b - bits.OnesCount64(e&(1<<b-1)))
			idx++
		}
		base -= bits.OnesCount64(e)
	}
}

// paperNodes writes D′ back in the paper's numbering, the one Algorithm
// 1 emitted, into dst: code n is paper node inv[n].
func paperNodes[N code](dst []uint32, nodes []N, inv []uint32) {
	dst = dst[:len(nodes)]
	for k, n := range nodes {
		dst[k] = inv[n]
	}
}

// handImage writes the image of variant v of a batch given in resident
// form — I, D′, the creation bitmap and the tuple starts — whatever it
// holds: the writer copies the arrays as they are, so an invalid D′
// gives an invalid image. D′ is held 16 bits a code when every code
// fits, and a Full image packs it at the width of |I| plus the bitmap's
// population, which must hold every code.
func handImage(v Variant, rows, cols int, I []Pair, codes []uint32, created []uint64, starts []uint32) []byte {
	first, _ := splitI(I, v, rows, cols)
	b := &Batch{cols: cols, variant: v, i: first, d: residentD{starts: starts, created: created}}
	for _, w := range created {
		b.d.live += bits.OnesCount64(w)
	}
	if maxOf(codes) < 1<<16 {
		b.d.narrow = make([]uint16, len(codes))
		for k, n := range codes {
			b.d.narrow[k] = uint16(n)
		}
	} else {
		b.d.wide = codes
	}
	return new(encoder).image(b)
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
	if (b.i.isWide() && len(b.i.narrow) != 0) || (!b.i.isWide() && b.i.narrow == nil) || b.i.isWide() != !narrowFits(b.cols, len(b.i.vals)) {
		t.Fatalf("%s: %d columns and a dictionary of %d hold I's words wide=%v (narrow %v, wide %v)",
			tag, b.cols, len(b.i.vals), b.i.isWide(), b.i.narrow != nil, b.i.wide != nil)
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
// sequences; the image written from the resident form is the one the
// oracle writes from Algorithm 1's D; and the image round-trips byte for
// byte, with CompressedSize its length, from the batch and from a scaled
// one.
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
		c, x := b.i.pair(int(lean.KeyIdx[i] - 1))
		key := want.Key[ids[i]]
		if ids[lean.Parent[i]] != want.Parent[ids[i]] || c != key.Col || math.Float64bits(b.i.vals[x]) != math.Float64bits(key.Val) {
			t.Fatalf("%s: live node %d (paper %d) = key %d:%v parent %d, oracle key %v parent %d", tag, i, ids[i],
				c, b.i.vals[x], ids[lean.Parent[i]], want.Key[ids[i]], want.Parent[ids[i]])
		}
	}

	// Decode writes each code's sequence into its row; with the oracle's
	// keys that is a plain walk up the parents.
	dec := matrix.NewDense(b.Rows(), b.cols)
	for i := 0; i < b.Rows(); i++ {
		for _, n := range paper.row(i) {
			for idx := n; idx != 0; idx = want.Parent[idx] {
				dec.Set(i, int(want.Key[idx].Col), want.Key[idx].Val)
			}
		}
	}
	if got := b.Decode(); got.Rows() != b.Rows() || got.Cols() != b.cols || !bitsEqual(got.Data(), dec.Data()) {
		t.Fatalf("%s: Decode differs from the oracle", tag)
	}

	// The image written from the resident form is the one the oracle
	// writes from Algorithm 1's D. A batch that keeps no image was made
	// by Compress or Scale, and its dictionary is the first-appearance
	// one: it writes the canonical image of (I, D). One Deserialize made
	// returns the bytes it was read from, which may be any image of the
	// same (I, D) (readFull states the accepted language), and keeps that
	// image's dictionary: with its image dropped it writes the oracle's
	// image of its own dictionary and indexes, no longer than the bytes
	// it read. (Scale itself may change a NaN's bits.)
	canon := written(b)
	if want := oracleImage(b, paper, b.img != nil); !bytes.Equal(canon, want) {
		t.Fatalf("%s: the image written from the resident form differs from the oracle's", tag)
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
		t.Fatalf("%s: the image written from the resident form differs from the batch's", tag)
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
			back.d.live != b.d.live {
			t.Fatalf("%s: the %s deserializes to another resident D", tag, c.name)
		}
		if !sameFirstLayer(&back.i, &c.of.i) {
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
			h.Set(i, j, float64(k.Val*m.At(int(k.Col), j))+h.At(int(t.Parent[i]), j))
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
			vr, vl := randVec(rng, b.cols), randVec(rng, b.Rows())
			// Zeros of both signs make some products -0, the one value
			// for which "+ H[root]" is not the identity.
			for j := 0; j < len(vr); j += 3 {
				vr[j] = math.Copysign(0, float64(j%2)-0.5)
			}
			mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.Rows())
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
					plan.MulVecInto(dirtyVec(b.Rows()), vr, w), plan.VecMulInto(dirtyVec(b.cols), vl, w),
					plan.MulMatInto(dirtyMat(b.Rows(), p), mr, w).Data(), plan.MatMulInto(dirtyMat(p, b.cols), ml, w).Data())
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
// the root for every element — and the image layout of physical.go
// written through bitpack.Pack and a dictionary keyed on a value's bits,
// with D renumbered onto its referenced nodes by maps (oracleResident). It is
// what Compress ran before the pooled open-addressed encoder; the encoder
// must reproduce its I, D and image bytes.

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

// oracleResident renumbers paper, D in the paper's numbering, onto the
// nodes it references the plain way: the referenced nodes, numbered in
// ascending order from 1, and the creation bitmap bit by bit — bit q of
// byte q/8 is set iff the node position q created is referenced, the
// paper numbering the node a tuple's non-final position creates in
// order from |I|+1.
func oracleResident(lenI int, paper dTable) (codes []uint32, bitmap []byte) {
	referenced := map[uint32]bool{}
	top := uint32(0)
	for _, n := range paper.Nodes {
		referenced[n] = true
		top = max(top, n)
	}
	id := map[uint32]uint32{}
	for n := uint32(1); n <= top; n++ {
		if referenced[n] {
			id[n] = uint32(len(id)) + 1
		}
	}
	codes = make([]uint32, len(paper.Nodes))
	for k, n := range paper.Nodes {
		codes[k] = id[n]
	}
	bitmap = make([]byte, (len(paper.Nodes)+7)/8)
	next := uint32(lenI) + 1
	for r := 0; r < paper.rows(); r++ {
		for q := paper.Starts[r]; q+1 < paper.Starts[r+1]; q++ {
			if referenced[next] {
				bitmap[q/8] |= 1 << (q % 8)
			}
			next++
		}
	}
	return codes, bitmap
}

// oracleImage is the image of b's variant, first layer and tuple starts
// with D given in the paper's numbering, written by its own path:
// oracleResident's D′ and bitmap, the Full sections through bitpack.Pack
// and a first-appearance dictionary keyed on a value's bits — or, with
// own, b's dictionary and indexes as they are; a dictionary with an
// entry for every pair is written as the pairs' values instead — the
// SparseLogical ones appended value by value.
func oracleImage(b *Batch, paper dTable, own bool) []byte {
	codes, bitmap := oracleResident(b.i.len(), paper)
	out := make([]byte, headerSize)
	b.putHeader(out)
	le := binary.LittleEndian
	I := b.i.pairs()
	cols := make([]uint32, len(I))
	for k, p := range I {
		cols[k] = p.Col
	}
	if b.variant == SparseLogical {
		out = le.AppendUint32(out, uint32(len(I)))
		for _, p := range I {
			out = le.AppendUint64(le.AppendUint32(out, p.Col), math.Float64bits(p.Val))
		}
		out = le.AppendUint32(out, uint32(len(codes)))
		for _, n := range codes {
			out = le.AppendUint32(out, n)
		}
		out = append(out, bitmap...)
		for _, s := range paper.Starts {
			out = le.AppendUint32(out, s)
		}
		return out
	}
	occ := make([]uint32, len(I))
	var dict []float64
	lookup := map[uint64]uint32{}
	for k, p := range I {
		if own {
			_, occ[k] = b.i.pair(k)
			continue
		}
		idx, ok := lookup[math.Float64bits(p.Val)]
		if !ok {
			idx = uint32(len(dict))
			dict = append(dict, p.Val)
			lookup[math.Float64bits(p.Val)] = idx
		}
		occ[k] = idx
	}
	if own {
		dict = b.i.vals
	}
	out = bitpack.Pack(cols).AppendTo(out)
	out = le.AppendUint32(out, uint32(len(dict)))
	if len(dict) == len(I) {
		// One entry a pair: the image holds each pair's value, in pair
		// order, and no index section.
		for _, p := range I {
			out = le.AppendUint64(out, math.Float64bits(p.Val))
		}
	} else {
		for _, v := range dict {
			out = le.AppendUint64(out, math.Float64bits(v))
		}
		out = bitpack.Pack(occ).AppendTo(out)
	}
	out = bitpack.Pack(codes).AppendTo(out)
	out = append(out, bitmap...)
	return bitpack.Pack(paper.Starts).AppendTo(out)
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
	wantImg := oracleImage(want.b, want.paper, false)
	if got == nil {
		got = newLogicalCase(t, tag, len(rows), cols, Full, I, D).b
	}
	// The batch keeps D in live numbering; the inverse map reads it back
	// as Algorithm 1 emitted it.
	if !reflect.DeepEqual(got.i.pairs(), wantI) || !slices.Equal(paperCodes(got), want.paper.Nodes) ||
		!slices.Equal(got.d.starts, want.paper.Starts) {
		t.Fatalf("%s: the batch's (I, D) differs from the map oracle", tag)
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
	// The benchmark's batch shape, consecutive batches of every
	// generator: they run through one pooled encoder, so this is also
	// where a stale table or hint would show.
	for _, name := range generators {
		for k, m := range generatorBatches(t, name, 7) {
			checkAgainstMapOracle(t, fmt.Sprintf("%s batch %d", name, k), m.Cols(), SparseEncode(m), Compress(m))
		}
	}
}

// generatorBatches returns consecutive 250-row batches of generator name:
// 40 of them, or as many as 24 MiB of dense rows hold (rcv1: 5).
func generatorBatches(t *testing.T, name string, seed int64) []*matrix.Dense {
	t.Helper()
	const rows = 250
	cols, err := data.DefaultCols(name)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*matrix.Dense, min(40, (24<<20)/(8*rows*cols)))
	ds, err := data.Generate(name, rows*len(ms), seed)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ms {
		ms[k], _ = ds.Batch(k, rows)
	}
	return ms
}

// TestEncoderTableHistory encodes every input with a fresh encoder, with
// one whose tables a larger input has already grown, and with one that a
// small batch has sized its tables for, and requires the same (I, D) and
// the same image bytes. A fresh encoder's tables start small and grow
// while it inserts; a warmed one's are emptied and sized from its last
// input. The one sized by a small batch meets at least 4× its non-zeros,
// so it grows its tables mid-batch, past entries already placed.
func TestEncoderTableHistory(t *testing.T) {
	type input struct {
		name  string
		cols  int
		rows  []SparseRow
		dense *matrix.Dense // nil: only the sparse rows exist
	}
	var inputs []input
	rng := rand.New(rand.NewSource(2100))
	for name, c := range oracleCases(rng) {
		inputs = append(inputs, input{name: name, cols: c.cols, rows: c.rows})
	}
	for _, name := range generators {
		for k, m := range generatorBatches(t, name, 9) {
			inputs = append(inputs, input{fmt.Sprintf("%s batch %d", name, k), m.Cols(), SparseEncode(m), m})
		}
	}
	nnz := func(in input) (n int) {
		for _, r := range in.rows {
			n += len(r)
		}
		return n
	}
	largest := slices.MaxFunc(inputs, func(a, b input) int { return nnz(a) - nnz(b) })
	warm := new(encoder)
	warm.prefixTreeEncode(largest.rows)
	if largest.dense != nil {
		warm.compress(largest.dense, Full)
	}
	var firstGrew, childGrew int
	for _, in := range inputs {
		I, D := new(encoder).prefixTreeEncode(in.rows)
		wI, wD := warm.prefixTreeEncode(in.rows)
		if !reflect.DeepEqual(wI, I) || !reflect.DeepEqual(wD, D) {
			t.Fatalf("%s: a warmed encoder's (I, D) differs from a fresh one's", in.name)
		}
		img := newLogicalCase(t, in.name, len(in.rows), in.cols, Full, I, D).b.Serialize()
		if in.dense == nil {
			continue
		}
		// An encoder sized by the first eighth of this batch.
		head := in.dense.Rows() / 8
		if small := nnz(input{rows: in.rows[:head]}); nnz(in) < 4*small {
			t.Fatalf("%s: %d non-zeros, not 4× the %d of its first %d rows", in.name, nnz(in), small, head)
		}
		sized := new(encoder)
		sized.compress(in.dense.ViewRows(0, head), Full)
		firstSize, childSize := tableSize(2*sized.first.n), tableSize(2*sized.child.n)
		for _, e := range []*encoder{new(encoder), warm, sized} {
			b := e.compress(in.dense, Full)
			if got := b.Serialize(); !bytes.Equal(got, img) || b.CompressedSize() != len(img) {
				t.Fatalf("%s: compress wrote a %d-byte image and sized it %d, want the %d bytes of its (I, D)",
					in.name, len(got), b.CompressedSize(), len(img))
			}
		}
		if len(sized.first.slots) > firstSize {
			firstGrew++
		}
		if len(sized.child.slots) > childSize {
			childGrew++
		}
	}
	if firstGrew == 0 || childGrew == 0 {
		t.Fatalf("a pre-sized encoder grew its first-layer table on %d batches and its child table on %d, want both > 0",
			firstGrew, childGrew)
	}
}
