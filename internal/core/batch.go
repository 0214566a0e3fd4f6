package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"toc/internal/matrix"
)

// Variant selects which encoding layers a Batch uses. The paper's ablation
// study (Figures 6 and 10) compares the cumulative variants.
type Variant uint8

const (
	// Full uses sparse + logical + physical encoding (TOC_FULL).
	Full Variant = iota
	// SparseLogical uses sparse + logical encoding with raw physical
	// storage (TOC_SPARSE_AND_LOGICAL).
	SparseLogical
	// SparseOnly uses just the sparse encoding (TOC_SPARSE).
	SparseOnly
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case Full:
		return "TOC_FULL"
	case SparseLogical:
		return "TOC_SPARSE_AND_LOGICAL"
	case SparseOnly:
		return "TOC_SPARSE"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Batch is a TOC-compressed mini-batch. It holds the logical encoding
// (I, D) in memory for kernel execution — D renumbered onto the live
// nodes of the decode tree, the resident form decodetree.go describes —
// plus the physical byte image whose length is the batch's compressed
// size; Serialize returns that image, which is in the paper's numbering,
// and Deserialize reconstructs the batch from it.
//
// Invariants (checked by tests):
//   - lossless: Decode() equals the compressed input exactly;
//   - every node index in D is non-zero and below the decode-tree length;
//   - in the decode tree, Parent[i] < i for every node, which is what makes
//     the single forward scan of Algorithms 4/7 and the single backward
//     scan of Algorithms 5/8 correct.
type Batch struct {
	rows, cols int
	variant    Variant

	// logical layer (Full, SparseLogical)
	i []Pair
	d dTable

	// sparse layer (SparseOnly)
	srStarts []uint32
	srCols   []uint32
	srVals   []float64

	img []byte // serialized physical image; nil when stale (after Scale)
}

// Compress encodes a dense mini-batch with the Full TOC pipeline.
func Compress(m *matrix.Dense) *Batch { return CompressVariant(m, Full) }

// CompressVariant encodes a dense mini-batch using the given layer subset.
func CompressVariant(m *matrix.Dense, v Variant) *Batch {
	if v == SparseOnly {
		b := &Batch{rows: m.Rows(), cols: m.Cols(), variant: v}
		b.srStarts = make([]uint32, b.rows+1)
		nnz := m.NNZ()
		b.srCols = make([]uint32, 0, nnz)
		b.srVals = make([]float64, 0, nnz)
		for i := 0; i < b.rows; i++ {
			for j, x := range m.Row(i) {
				if x != 0 {
					b.srCols = append(b.srCols, uint32(j))
					b.srVals = append(b.srVals, x)
				}
			}
			b.srStarts[i+1] = uint32(len(b.srCols))
		}
		b.img = b.buildImage(nil)
		return b
	}
	e := encoderPool.Get().(*encoder)
	e.addDense(m)
	e.encode()
	I := exactCopy(e.pairs)
	D := dTable{Nodes: exactCopy(e.d.Nodes), Starts: exactCopy(e.d.Starts)}
	encoderPool.Put(e)
	b, err := newLogical(m.Rows(), m.Cols(), v, I, D, nil)
	if err != nil {
		panic("core: Algorithm 1 emitted an invalid (I, D): " + err.Error())
	}
	return b
}

// liveScratch is the pooled working memory of one newLogical call.
type liveScratch struct {
	mark  []byte   // by node, paper's numbering: 1 iff D references it
	remap []uint32 // by node, paper's numbering: its live id
	at    []byte   // by D position: the mark of the node it created
}

var liveScratchPool = sync.Pool{New: func() any { return new(liveScratch) }}

// newLogical is the one place a Full or SparseLogical batch is made: it
// takes (I, D) as Algorithm 1 emits them — from the encoder, or unpacked
// from an image, which is then img — validates them, writes the image if
// there is none yet, and rewrites D.Nodes in place into the resident form
// of decodetree.go. D.Nodes must not be aliased by the caller.
func newLogical(rows, cols int, v Variant, I []Pair, D dTable, img []byte) (*Batch, error) {
	b := &Batch{rows: rows, cols: cols, variant: v, i: I, d: D, img: img}
	sc := liveScratchPool.Get().(*liveScratch)
	defer liveScratchPool.Put(sc)
	if err := b.validateLogical(sc); err != nil {
		return nil, err
	}
	if img == nil {
		b.img = b.buildImage(D.Nodes)
	}
	b.renumber(sc)
	return b, nil
}

// renumber rewrites d.Nodes from the paper's numbering to live ids and
// fills in d.created and d.live, given validateLogical's marks. It runs
// on every spilled read, so every loop over nodes or codes is flat and
// branch-free — most nodes are dead and no predictor learns which, and
// a loop per tuple mispredicts its exit once a tuple — and sits in a
// leaf function of its own, where its counter stays in a register
// (inlined here the compiler spills it to the stack on every iteration).
func (b *Batch) renumber(sc *liveScratch) {
	nodes, starts := b.d.Nodes, b.d.Starts
	firstLayer := len(b.i) + 1
	mark := sc.mark
	if cap(sc.remap) < len(mark) {
		sc.remap = make([]uint32, len(mark))
	}
	remap := sc.remap[:len(mark)]
	mark[0] = 1 // the root, so that every marked first-layer node keeps its number
	marked := numberMarked(remap, mark)
	translate(nodes, remap)

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
	b.d.created, b.d.live = created, marked-firstLayer
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

// translate replaces every code by its entry in remap. All of remap is
// known by now, so a code that references the node its predecessor
// created resolves like any other.
//
//go:noinline
func translate(nodes, remap []uint32) {
	for k, n := range nodes {
		nodes[k] = remap[n]
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
func (b *Batch) NumCodes() int { return len(b.d.Nodes) }

// CompressedSize returns the size in bytes of the physical image — the
// number the paper's compression ratios are computed from.
func (b *Batch) CompressedSize() int { return len(b.Serialize()) }

// UncompressedSize returns the DEN size of the original matrix.
func (b *Batch) UncompressedSize() int {
	return 16 + 8*b.rows*b.cols
}

// CompressionRatio returns UncompressedSize / CompressedSize.
func (b *Batch) CompressionRatio() float64 {
	return float64(b.UncompressedSize()) / float64(b.CompressedSize())
}

// Decode losslessly reconstructs the original dense mini-batch. For the
// logical variants it backtracks the decode tree as in Algorithm 6; for
// SparseOnly it expands the sparse rows.
func (b *Batch) Decode() *matrix.Dense {
	out := matrix.NewDense(b.rows, b.cols)
	if b.variant == SparseOnly {
		for i := 0; i < b.rows; i++ {
			row := out.Row(i)
			for k := b.srStarts[i]; k < b.srStarts[i+1]; k++ {
				row[b.srCols[k]] = b.srVals[k]
			}
		}
		return out
	}
	p := b.NewKernelPlan()
	defer p.Release()
	t := p.tree
	for i := 0; i < b.rows; i++ {
		row := out.Row(i)
		for _, n := range b.d.row(i) {
			for idx := n; idx != 0; idx = t.Parent[idx] {
				k := b.i[t.KeyIdx[idx]-1]
				row[k.Col] = k.Val
			}
		}
	}
	return out
}
