package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"toc/internal/matrix"
)

// Variant selects which encoding layers a Batch uses. The paper's ablation
// study (Figures 6 and 10) compares the cumulative variants; its first
// rung, the sparse encoding alone (TOC_SPARSE), stores exactly CSR's
// arrays and is formats' CSR.
type Variant uint8

const (
	// Full uses sparse + logical + physical encoding (TOC_FULL).
	Full Variant = iota
	// SparseLogical uses sparse + logical encoding with raw physical
	// storage (TOC_SPARSE_AND_LOGICAL).
	SparseLogical
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case Full:
		return "TOC_FULL"
	case SparseLogical:
		return "TOC_SPARSE_AND_LOGICAL"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Batch is a TOC-compressed mini-batch. Its resident form is its kernel
// inputs and nothing else: the first layer I, as a column array and a
// value array, and D′ — D renumbered onto the live nodes of the decode
// tree, 16 bits a code when they fit, with its tuple starts and creation
// bitmap (decodetree.go). It keeps no physical image: it knows the
// image's length, which CompressedSize reports, and Serialize writes the
// image, which holds the same resident form, on every call. A batch
// Deserialize made is the one exception: it aliases the image it was
// read from.
//
// Invariants (checked by tests):
//   - lossless: Decode() equals the compressed input exactly;
//   - every node index in D is non-zero and below the decode-tree length;
//   - in the decode tree, Parent[i] < i for every node, which is what makes
//     the single forward scan of Algorithms 4/7 and the single backward
//     scan of Algorithms 5/8 correct;
//   - CompressedSize() == len(Serialize()).
type Batch struct {
	rows, cols int
	variant    Variant

	i firstLayer
	d residentD

	size     int    // len(Serialize()), fixed when the batch is made
	distinct int    // I's distinct values, counted with size when there is no img
	img      []byte // the image Deserialize read the batch from; nil otherwise
}

// firstLayer is I, the tree's first layer, as two arrays of one length:
// pair k, the key of first-layer node k+1, is (col[k], val[k]). Held as
// a []Pair it would cost 16 bytes a pair, 4 of them padding; split, it
// costs 12. A batch's col and tuple starts are one allocation (carve).
type firstLayer struct {
	col []uint32
	val []float64
}

// len returns |I|.
func (f *firstLayer) len() int { return len(f.val) }

// arrays returns I's columns, resliced to |I|, and its values: the
// reslice is the one bounds check that lets the compiler prove col[k]
// wherever val[k] is in bounds, so a loop over I checks one index, not
// two.
func (f *firstLayer) arrays() (col []uint32, val []float64) { return f.col[:len(f.val)], f.val }

// pairs returns a copy of I in the paper's layout, one Pair a
// first-layer node.
func (f *firstLayer) pairs() []Pair {
	col, val := f.arrays()
	I := make([]Pair, len(val))
	for k, v := range val {
		I[k] = Pair{Col: col[k], Val: v}
	}
	return I
}

// carve returns I's column array, of length lenI, and the tuple starts
// of rows tuples, cut from one array — spare's, when it is large enough.
// The columns come first and keep the whole array's capacity, so that
// spare can hand it back.
func carve(spare []uint32, lenI, rows int) (col, starts []uint32) {
	w := fit(spare, lenI+rows+1)
	return w[:lenI], w[lenI:]
}

// Compress encodes a dense mini-batch with the Full TOC pipeline.
func Compress(m *matrix.Dense) *Batch { return CompressVariant(m, Full) }

// CompressVariant encodes a dense mini-batch using the given layer subset.
// D in the paper's numbering stays in the pooled encoder; the batch keeps
// only what newLogical renumbers it into.
func CompressVariant(m *matrix.Dense, v Variant) *Batch {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	return e.compress(m, v)
}

// compress is CompressVariant on the encoder e.
func (e *encoder) compress(m *matrix.Dense, v Variant) *Batch {
	e.addDense(m)
	e.encode()
	col, starts := carve(nil, len(e.pairs.val), m.Rows())
	copy(col, e.pairs.col)
	copy(starts, e.d.Starts)
	I := firstLayer{col: col, val: exactCopy(e.pairs.val)}
	b, err := newLogical(m.Rows(), m.Cols(), v, I, dTable{Nodes: e.d.Nodes, Starts: starts})
	if err != nil {
		panic("core: Algorithm 1 emitted an invalid (I, D): " + err.Error())
	}
	e.sizeImage(b)
	return b
}

// liveScratch is the pooled working memory of one newLogical or
// checkResident call.
type liveScratch struct {
	mark  []byte   // by node: 1 iff D references it (checkResident: by live id)
	remap []uint32 // by node, paper's numbering: its live id
	at    []byte   // by D position: the mark of the node it created
}

var liveScratchPool = sync.Pool{New: func() any { return new(liveScratch) }}

// newLogical makes a batch from (I, D) as Algorithm 1 emits them: it
// renumbers D into the resident form of decodetree.go and checks the
// result as a read checks an image's (checkResident). The batch keeps
// I's two arrays and D.Starts; D.Nodes is the encoder's pooled scratch,
// which it does not retain. The caller sets the batch's size.
func newLogical(rows, cols int, v Variant, I firstLayer, D dTable) (*Batch, error) {
	sc := liveScratchPool.Get().(*liveScratch)
	defer liveScratchPool.Put(sc)
	d := renumber(D, I.len(), sc)
	if err := checkResident(I.len(), &d, sc); err != nil {
		return nil, err
	}
	return &Batch{rows: rows, cols: cols, variant: v, i: I, d: d}, nil
}

// batchPool holds batches Recycle took back, each with its arrays
// emptied, for the next Deserialize to fill.
var batchPool sync.Pool

// Recycle hands b's memory — the Batch, I's two arrays, D′, the tuple
// starts and the creation bitmap — to a later Deserialize, which
// overwrites it. It is for a batch read for one use, once that use is
// over: nothing may touch b afterwards, nor a plan built on it, nor a
// Scale or Square of it (which share its D′ and I's columns, and with
// them the tuple starts), nor the image it was read from, which the
// caller may then reuse. Under the race detector the memory, image
// included, is poisoned first, so that a use after Recycle fails loudly.
// Memory that is never recycled is collected as usual.
func (b *Batch) Recycle() {
	if raceEnabled {
		b.poison()
	}
	b.spare()
	batchPool.Put(b)
}

// spare empties b, keeping its arrays for a later Deserialize to fill.
// I's column array, at its full capacity, is also the tuple starts'
// (carve).
func (b *Batch) spare() {
	d := &b.d
	*b = Batch{i: firstLayer{col: b.i.col[:0], val: b.i.val[:0]}, d: residentD{narrow: d.narrow[:0], wide: d.wide[:0], created: d.created[:0]}}
}

// poison overwrites everything b holds with values no kernel survives:
// out-of-range columns, codes and starts, NaN values, a bitmap of ones,
// and an image whose magic no longer matches.
func (b *Batch) poison() {
	fill(b.i.col, math.MaxUint32)
	fill(b.i.val, math.NaN())
	fill(b.d.narrow, math.MaxUint16)
	fill(b.d.wide, math.MaxUint32)
	fill(b.d.starts, math.MaxUint32)
	fill(b.d.created, math.MaxUint64)
	fill(b.img, 0xff)
}

// fill sets every element of s to v in a logarithmic number of copies,
// which the race detector checks a range at a time.
func fill[T any](s []T, v T) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := uint(1); n < uint(len(s)); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// fit returns s resized to n, reusing its array when it is large enough.
// With nothing to reuse the new array is exact, as a resident batch's
// must be (TestCompressAllocs). One replacing a recycled array that was
// too small gets the capacity its allocation size class holds anyway:
// the slack costs no memory, and lets it take a slightly larger batch
// next time.
func fit[T any](s []T, n int) []T {
	switch {
	case s != nil && uint(n) <= uint(cap(s)):
		return s[:n]
	case cap(s) > 0:
		return append(make([]T, 0), make([]T, n)...)
	}
	return make([]T, n)
}

// renumber returns D in resident form: it marks the nodes D references
// and numbers them in order. It runs once per Compress (an image holds
// the resident form), and every loop over nodes or codes is flat and
// branch-free — most nodes are dead and no predictor learns which, and a
// loop per tuple mispredicts its exit once a tuple.
func renumber(D dTable, lenI int, sc *liveScratch) residentD {
	nodes, starts := D.Nodes, D.Starts
	firstLayer := lenI + 1
	size := treeSize(lenI, D)
	if cap(sc.mark) < size || cap(sc.remap) < size {
		sc.mark, sc.remap = make([]byte, size), make([]uint32, size)
	}
	mark, remap := sc.mark[:size], sc.remap[:size]
	clear(mark)
	mark[0] = 1 // the root, so that every marked first-layer node keeps its number
	for _, n := range nodes {
		mark[n] = 1
	}
	marked := numberMarked(remap, mark)
	d := residentD{starts: starts}
	if marked <= 1<<16 { // live ids 0..marked-1
		d.narrow = make([]uint16, len(nodes))
		translate(d.narrow, nodes, remap)
	} else {
		d.wide = make([]uint32, len(nodes))
		translate(d.wide, nodes, remap)
	}

	// The creation bitmap. A tuple's non-final positions created a run of
	// consecutive nodes, so their marks move to position order a run at a
	// time; a tuple's last position created nothing.
	created := make([]uint64, (len(nodes)+63)/64)
	if cap(sc.at) < 64*len(created) {
		sc.at = make([]byte, 64*len(created))
	}
	at := sc.at[:64*len(created)]
	clear(at[len(nodes):])
	old := firstLayer
	for r := 1; r < len(starts); r++ {
		if lo, hi := starts[r-1], starts[r]; lo < hi {
			old += copy(at[lo:hi-1], mark[old:])
			at[hi-1] = 0
		}
	}
	packBits(created, at)
	d.created, d.live = created, marked-firstLayer
	return d
}

// numberMarked sets remap[k] to the number of marked nodes before k
// and returns the number marked.
//
//go:noinline
func numberMarked(remap []uint32, mark []byte) int {
	var id uint32
	for k, m := range mark[:len(remap)] {
		remap[k] = id
		id += uint32(m)
	}
	return int(id)
}

// translate writes every code's entry in remap to dst. Like the other
// leaf loops here, it keeps its counter in a register as a function of
// its own.
//
//go:noinline
func translate[N code](dst []N, nodes, remap []uint32) {
	dst = dst[:len(nodes)]
	for k, n := range nodes {
		dst[k] = N(remap[n])
	}
}

// packBits packs 0/1 bytes into bits, src[64*w+i] into bit i of dst[w];
// len(src) is 64*len(dst). Eight bytes pack with one multiply: byte i's
// bit lands on bit 56+i, and no two partial products share a bit.
//
//go:noinline
func packBits(dst []uint64, src []byte) {
	for w := range dst {
		var word uint64
		for k, run := 0, src[64*w:64*w+64]; k < 64; k += 8 {
			word |= binary.LittleEndian.Uint64(run[k:]) * 0x0102040810204080 >> 56 << k
		}
		dst[w] = word
	}
}

// Rows returns the number of tuples in the mini-batch.
func (b *Batch) Rows() int { return b.rows }

// Cols returns the number of columns of the original matrix.
func (b *Batch) Cols() int { return b.cols }

// Variant returns the encoding layer subset this batch was built with.
func (b *Batch) Variant() Variant { return b.variant }

// NumFirstLayer returns |I|, the number of unique column-index:value pairs.
func (b *Batch) NumFirstLayer() int { return b.i.len() }

// NumCodes returns the total number of tree-node indexes in D.
func (b *Batch) NumCodes() int { return b.d.len() }

// CompressedSize returns the length in bytes of the physical image — the
// number the paper's compression ratios are computed from. It is fixed
// when the batch is made, from the section widths and the number of
// distinct values, and writes no image.
func (b *Batch) CompressedSize() int { return b.size }

// UncompressedSize returns the DEN size of the original matrix.
func (b *Batch) UncompressedSize() int {
	return 16 + 8*b.rows*b.cols
}

// CompressionRatio returns UncompressedSize / CompressedSize.
func (b *Batch) CompressionRatio() float64 {
	return float64(b.UncompressedSize()) / float64(b.CompressedSize())
}

// Decode losslessly reconstructs the original dense mini-batch by
// backtracking the decode tree as in Algorithm 6.
func (b *Batch) Decode() *matrix.Dense {
	out := matrix.NewDense(b.rows, b.cols)
	p := b.NewKernelPlan()
	defer p.Release()
	if b.d.isWide() {
		decodeRows(out, b.i, b.d.wide, b.d.starts, p.tree)
	} else {
		decodeRows(out, b.i, b.d.narrow, b.d.starts, p.tree)
	}
	return out
}

// decodeRows writes every tuple's codes' sequences into its row of out.
func decodeRows[N code](out *matrix.Dense, I firstLayer, nodes []N, starts []uint32, t *DecodeTree) {
	col, val := I.arrays()
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		for _, n := range nodes[starts[i]:starts[i+1]] {
			for idx := uint32(n); idx != 0; idx = t.Parent[idx] {
				k := t.KeyIdx[idx] - 1
				row[col[k]] = val[k]
			}
		}
	}
}
