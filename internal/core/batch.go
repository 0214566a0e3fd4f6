package core

import (
	"fmt"

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
// (I, D) in memory for kernel execution plus the physical byte image whose
// length is the batch's compressed size; Serialize returns that image and
// Deserialize reconstructs the batch from it.
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
	b := &Batch{rows: m.Rows(), cols: m.Cols(), variant: v}
	if v == SparseOnly {
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
	} else {
		e := encoderPool.Get().(*encoder)
		e.addDense(m)
		e.encode()
		b.i = exactCopy(e.pairs)
		b.d = dTable{Nodes: exactCopy(e.d.Nodes), Starts: exactCopy(e.d.Starts)}
		encoderPool.Put(e)
	}
	b.img = b.buildImage()
	return b
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
func (b *Batch) CompressedSize() int {
	if b.img == nil {
		b.img = b.buildImage()
	}
	return len(b.img)
}

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
