package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"unsafe"

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
// inputs and nothing else: the first layer I, as the value dictionary
// and one word a pair naming a column and a dictionary entry, and D′ —
// D renumbered onto the live nodes of the decode tree, 16 bits a code
// when they fit, with its tuple starts and creation bitmap
// (decodetree.go). It keeps no physical image: it knows the image's
// length, which CompressedSize reports, and Serialize writes the image,
// which holds the same resident form, on every call. A batch
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
	cols    int // the rows are D's tuples: len(d.starts)-1
	variant Variant

	i firstLayer
	d residentD

	size int    // len(Serialize()), fixed when the batch is made
	img  []byte // the image Deserialize read the batch from; nil otherwise
}

// firstLayer is I, the tree's first layer, in the form the image's
// physical layer gives it (§3.2, value indexing): vals is the value
// dictionary, and pair k, the key of first-layer node k+1, is one word
// with its column in the high half and the index of its value in vals in
// the low half. The word is 32 bits (narrow) when the matrix's columns
// and the dictionary both fit 16 bits, and 64 (wide) otherwise; exactly
// one of the two is non-nil, and the callers of the generic scans pick
// one with isWide(), as D′'s pick a code width. A batch's tuple starts
// and narrow words are one allocation (carve).
//
// A Full batch's dictionary is the entries of its image's value
// dictionary: for a batch Compress or Scale made, I's distinct values in
// first-appearance order. When every value is distinct that is I's
// values in order, pair k naming entry k, and the image stores no index
// section (physical.go); any dictionary of |I| entries is held in that
// order, as the image stores it (remapPairs). A SparseLogical batch's is always I's values in
// order, pair k naming entry k. On mnist a batch of 7641 pairs holds 256
// distinct values, so a pair costs 4 bytes and the dictionary 2 KB,
// where a column and a value a pair cost 12 bytes; on imagenet every
// value is distinct, and a pair costs 12 bytes either way.
type firstLayer struct {
	narrow []uint32  // column<<16 | index; when wide, empty with the starts' array behind it
	wide   []uint64  // column<<32 | index
	vals   []float64 // the value dictionary
}

// pairWord is the width of a resident first-layer pair.
type pairWord interface{ ~uint32 | ~uint64 }

// halves returns the bit width of a W's halves and the mask of its low
// half, constants in each instantiation. A scan takes them once, before
// its loop, then splits a word w as w>>half and w&low and makes one as
// W(col)<<half | W(idx): a generic call inside the loop would reload its
// dictionary every iteration.
func halves[W pairWord]() (half uint, low W) {
	var w W
	half = uint(4 * unsafe.Sizeof(w))
	return half, 1<<half - 1
}

// narrowFits reports whether a matrix of cols columns and a dictionary
// of n entries fit the 32-bit word.
func narrowFits(cols, n int) bool { return cols <= 1<<16 && n <= 1<<16 }

// isWide reports whether I holds 64-bit words.
func (f *firstLayer) isWide() bool { return f.wide != nil }

// len returns |I|.
func (f *firstLayer) len() int { return len(f.narrow) + len(f.wide) }

// pair returns pair k's column and dictionary index, at either width.
func (f *firstLayer) pair(k int) (col, idx uint32) {
	if f.isWide() {
		return uint32(f.wide[k] >> 32), uint32(f.wide[k])
	}
	return f.narrow[k] >> 16, f.narrow[k] & 0xffff
}

// set makes pair k name column col and dictionary entry idx.
func (f *firstLayer) set(k int, col, idx uint32) {
	if f.isWide() {
		f.wide[k] = uint64(col)<<32 | uint64(idx)
	} else {
		f.narrow[k] = col<<16 | idx
	}
}

// colTop returns the largest column I names, zero for none.
func (f *firstLayer) colTop() uint32 {
	if f.isWide() {
		return maxColumn(f.wide)
	}
	return maxColumn(f.narrow)
}

// maxColumn returns the largest column the words name: the column is
// the high half, so it is the largest word's.
func maxColumn[W pairWord](words []W) uint32 {
	half, _ := halves[W]()
	var top W
	for _, w := range words {
		top = max(top, w)
	}
	return uint32(top >> half)
}

// carve returns a first layer of lenI words, wide or narrow, and the
// tuple starts of rows tuples; the starts and narrow words are cut from
// one array — spare's, when it is large enough — with the words first,
// and the array's whole capacity stays behind narrow for spare to hand
// back. Wide words reuse spare's when they fit. The dictionary is the
// caller's to fill.
func carve(spare firstLayer, lenI, rows int, wide bool) (firstLayer, []uint32) {
	if wide {
		w := fit(spare.narrow, rows+1)
		return firstLayer{narrow: w[:0], wide: fit(spare.wide, lenI)}, w
	}
	w := fit(spare.narrow, lenI+rows+1)
	return firstLayer{narrow: w[:lenI]}, w[lenI:]
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
	I, starts := e.resident(v, m.Rows(), m.Cols())
	copy(starts, e.d.Starts)
	b, err := newLogical(m.Cols(), v, I, dTable{Nodes: e.d.Nodes, Starts: starts})
	if err != nil {
		panic("core: Algorithm 1 emitted an invalid (I, D): " + err.Error())
	}
	b.sizeImage()
	return b
}

// resident returns the first layer Algorithm 1 staged in e in resident
// form, carved with room for rows+1 tuple starts, and its dictionary
// copied out at exact length: for Full, I's values interned on their
// bits (valueIndex), for SparseLogical I's values as they are.
func (e *encoder) resident(v Variant, rows, cols int) (firstLayer, []uint32) {
	vals := e.val
	if v == Full {
		e.vals = e.valueIndex(e.val, e.vals[:0])
		vals = e.vals
	} else {
		e.occ = fit(e.occ, len(e.val))
		for k := range e.occ {
			e.occ[k] = uint32(k)
		}
	}
	I, starts := carve(firstLayer{}, len(e.col), rows, !narrowFits(cols, len(vals)))
	if I.isWide() {
		joinPairs(I.wide, e.col, e.occ)
	} else {
		joinPairs(I.narrow, e.col, e.occ)
	}
	I.vals = exactCopy(vals)
	return I, starts
}

// joinPairs writes the word of col[k] and idx[k] to words[k].
func joinPairs[W pairWord](words []W, col, idx []uint32) {
	half, _ := halves[W]()
	col, idx = col[:len(words)], idx[:len(words)]
	for k := range words {
		words[k] = W(col[k])<<half | W(idx[k])
	}
}

// liveScratch is the pooled working memory of one newLogical or
// checkResident call.
type liveScratch struct {
	mark  []byte   // by node: 1 iff D references it (checkResident: by live id)
	remap []uint32 // by node, paper's numbering: its live id
	at    []byte   // by D position: the mark of the node it created
}

var liveScratchPool = sync.Pool{New: func() any { return new(liveScratch) }}

// newLogical makes a batch from I in resident form and D as Algorithm 1
// emits it: it renumbers D into the resident form of decodetree.go and
// checks the result as a read checks an image's (checkResident). The
// batch keeps I and D.Starts; D.Nodes is the encoder's pooled scratch,
// which it does not retain. The caller sets the batch's size.
func newLogical(cols int, v Variant, I firstLayer, D dTable) (*Batch, error) {
	sc := liveScratchPool.Get().(*liveScratch)
	defer liveScratchPool.Put(sc)
	d := renumber(D, I.len(), sc)
	if err := checkResident(I.len(), &d, sc); err != nil {
		return nil, err
	}
	return &Batch{cols: cols, variant: v, i: I, d: d}, nil
}

// batchPool holds batches Recycle took back, each with its arrays
// emptied, for the next Deserialize to fill.
var batchPool sync.Pool

// Recycle hands b's memory — the Batch, I's words and dictionary, D′,
// the tuple starts and the creation bitmap — to a later Deserialize,
// which overwrites it. It is for a batch read for one use, once that use
// is over: nothing may touch b afterwards, nor a plan built on it, nor a
// Scale or Square of it (which share its D′ and, unless two values
// merged, I's words, and with them the tuple starts), nor the image it
// was read from, which the caller may then reuse. Under the race
// detector the memory, image included, is poisoned first, so that a use
// after Recycle fails loudly. Memory that is never recycled is collected
// as usual.
func (b *Batch) Recycle() {
	if raceEnabled {
		b.poison()
	}
	b.spare()
	batchPool.Put(b)
}

// spare empties b, keeping its arrays for a later Deserialize to fill.
// I's narrow word array, at its full capacity, is also the tuple starts'
// (carve).
func (b *Batch) spare() {
	i, d := &b.i, &b.d
	*b = Batch{i: firstLayer{narrow: i.narrow[:0], wide: i.wide[:0], vals: i.vals[:0]},
		d: residentD{narrow: d.narrow[:0], wide: d.wide[:0], created: d.created[:0]}}
}

// poison overwrites everything b holds with values no kernel survives:
// out-of-range columns, dictionary indexes, codes and starts, NaN
// values, a bitmap of ones, and an image whose magic no longer matches.
func (b *Batch) poison() {
	fill(b.i.narrow, math.MaxUint32)
	fill(b.i.wide, math.MaxUint64)
	fill(b.i.vals, math.NaN())
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
func (b *Batch) Rows() int { return len(b.d.starts) - 1 }

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
	return 16 + 8*b.Rows()*b.cols
}

// CompressionRatio returns UncompressedSize / CompressedSize.
func (b *Batch) CompressionRatio() float64 {
	return float64(b.UncompressedSize()) / float64(b.CompressedSize())
}

// Decode losslessly reconstructs the original dense mini-batch by
// backtracking the decode tree as in Algorithm 6.
func (b *Batch) Decode() *matrix.Dense {
	out := matrix.NewDense(b.Rows(), b.cols)
	p := b.NewKernelPlan()
	defer p.Release()
	if b.i.isWide() {
		decodeWith(out, b.i.wide, b.i.vals, &b.d, p.tree)
	} else {
		decodeWith(out, b.i.narrow, b.i.vals, &b.d, p.tree)
	}
	return out
}

// decodeWith is Decode at I's word width; it picks D′'s.
func decodeWith[W pairWord](out *matrix.Dense, words []W, vals []float64, d *residentD, t *DecodeTree) {
	if d.isWide() {
		decodeRows(out, words, vals, d.wide, d.starts, t)
	} else {
		decodeRows(out, words, vals, d.narrow, d.starts, t)
	}
}

// decodeRows writes every tuple's codes' sequences into its row of out.
func decodeRows[W pairWord, N code](out *matrix.Dense, words []W, vals []float64, nodes []N, starts []uint32, t *DecodeTree) {
	half, low := halves[W]()
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		for _, n := range nodes[starts[i]:starts[i+1]] {
			for idx := uint32(n); idx != 0; idx = t.Parent[idx] {
				w := words[t.KeyIdx[idx]-1]
				row[w>>half] = vals[w&low]
			}
		}
	}
}
