package formats

import (
	"toc/internal/core"
	"toc/internal/matrix"
)

// TOC adapts core.Batch (the paper's contribution) to the CompressedMatrix
// interface, together with the ablation variants of Figures 6 and 10.
type TOC struct {
	*core.Batch
}

// deserializeTOC decodes any TOC variant (the image self-describes it).
func deserializeTOC(img []byte) (CompressedMatrix, error) {
	b, err := core.Deserialize(img)
	if err != nil {
		return nil, err
	}
	return TOC{b}, nil
}

func init() {
	Register("TOC", func(d *matrix.Dense) CompressedMatrix {
		return TOC{core.Compress(d)}
	}, deserializeTOC)
	Register("TOC_SPARSE", func(d *matrix.Dense) CompressedMatrix {
		return TOC{core.CompressVariant(d, core.SparseOnly)}
	}, deserializeTOC)
	Register("TOC_SPARSE_AND_LOGICAL", func(d *matrix.Dense) CompressedMatrix {
		return TOC{core.CompressVariant(d, core.SparseLogical)}
	}, deserializeTOC)
	Register("TOC_FULL", func(d *matrix.Dense) CompressedMatrix {
		return TOC{core.CompressVariant(d, core.Full)}
	}, deserializeTOC)
}

// Scale computes A.*c via Algorithm 3, adapting the concrete return type.
func (t TOC) Scale(c float64) CompressedMatrix { return TOC{t.Batch.Scale(c)} }

// NewKernelPlan builds the batch's decode tree C' once and returns the
// plan sharing it across kernel calls (until its Release), adapting the
// concrete return type.
func (t TOC) NewKernelPlan() KernelPlan { return t.Batch.NewKernelPlan() }

// TOC plans its batches: a plan's kernels shard across goroutines with
// bitwise-identical results and amortize the decode-tree build across a
// step's kernels.
var _ ParallelOps = TOC{}
