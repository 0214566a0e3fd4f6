package core

import (
	"encoding/binary"
	"fmt"
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
// inputs and nothing else: the first layer I and D′ — D renumbered onto
// the live nodes of the decode tree, 16 bits a code when they fit, with
// its tuple starts and creation bitmap (decodetree.go). It keeps no
// physical image: it knows the image's length, which CompressedSize
// reports, and Serialize writes the image, in the paper's numbering, on
// every call. A batch Deserialize made is the one exception: it aliases
// the image it was read from.
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

	i []Pair
	d residentD

	size     int    // len(Serialize()), fixed when the batch is made
	distinct int    // I's distinct values, counted with size when there is no img
	img      []byte // the image Deserialize read the batch from; nil otherwise
}

// Compress encodes a dense mini-batch with the Full TOC pipeline.
func Compress(m *matrix.Dense) *Batch { return CompressVariant(m, Full) }

// CompressVariant encodes a dense mini-batch using the given layer subset.
// D in the paper's numbering stays in the pooled encoder; the batch keeps
// only what newLogical renumbers it into.
func CompressVariant(m *matrix.Dense, v Variant) *Batch {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	e.addDense(m)
	e.encode()
	D := dTable{Nodes: e.d.Nodes, Starts: exactCopy(e.d.Starts)}
	b, err := newLogical(m.Rows(), m.Cols(), v, exactCopy(e.pairs), D, nil)
	if err != nil {
		panic("core: Algorithm 1 emitted an invalid (I, D): " + err.Error())
	}
	e.sizeImage(b)
	return b
}

// liveScratch is the pooled working memory of one newLogical call.
type liveScratch struct {
	mark  []byte   // by node, paper's numbering: 1 iff D references it
	remap []uint32 // by node, paper's numbering: its live id
	at    []byte   // by D position: the mark of the node it created
}

var liveScratchPool = sync.Pool{New: func() any { return new(liveScratch) }}

// newLogical is the one place a batch is made: it takes (I, D) as
// Algorithm 1 emits them — from the encoder, or unpacked from an image,
// which is then img — validates them and renumbers D into the resident
// form of decodetree.go. The batch keeps I and D.Starts; D.Nodes may be
// pooled scratch, which it does not retain. An image's length is the
// batch's size; a batch made without one has its size set by the caller.
func newLogical(rows, cols int, v Variant, I []Pair, D dTable, img []byte) (*Batch, error) {
	b := &Batch{rows: rows, cols: cols, variant: v, i: I, size: len(img), img: img}
	sc := liveScratchPool.Get().(*liveScratch)
	defer liveScratchPool.Put(sc)
	if err := validateLogical(rows, cols, I, D, sc); err != nil {
		return nil, err
	}
	b.d = renumber(D, len(I), sc)
	return b, nil
}

// renumber returns D in resident form, given validateLogical's marks. It
// runs on every spilled read, so every loop over nodes or codes is flat
// and branch-free — most nodes are dead and no predictor learns which,
// and a loop per tuple mispredicts its exit once a tuple.
func renumber(D dTable, lenI int, sc *liveScratch) residentD {
	nodes, starts := D.Nodes, D.Starts
	firstLayer := lenI + 1
	mark := sc.mark
	if cap(sc.remap) < len(mark) {
		sc.remap = make([]uint32, len(mark))
	}
	remap := sc.remap[:len(mark)]
	mark[0] = 1 // the root, so that every marked first-layer node keeps its number
	marked := numberMarked(remap, mark)
	top := len(mark) - 1 // the largest code: the last marked node, the root at worst
	for mark[top] == 0 {
		top--
	}
	d := residentD{starts: starts, top: uint32(top)}
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

// numberMarked numbers the marked nodes in order, the unmarked ones
// skipped: remap[k] is the number of marked nodes before k. An unmarked
// node's entry is the number the next marked one gets, and nothing reads
// it. It returns the number of marked nodes.
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

// translate writes every code's entry in remap to dst. All of remap is
// known by now, so a code that references the node its predecessor
// created resolves like any other. It sits in a leaf function of its
// own, where its counter stays in a register.
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
func (b *Batch) NumFirstLayer() int { return len(b.i) }

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
func decodeRows[N code](out *matrix.Dense, I []Pair, nodes []N, starts []uint32, t *DecodeTree) {
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		for _, n := range nodes[starts[i]:starts[i+1]] {
			for idx := uint32(n); idx != 0; idx = t.Parent[idx] {
				k := I[t.KeyIdx[idx]-1]
				row[k.Col] = k.Val
			}
		}
	}
}
