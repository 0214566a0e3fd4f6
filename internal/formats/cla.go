package formats

import (
	"toc/internal/cla"
	"toc/internal/matrix"
)

// CLA adapts the internal/cla compressed linear algebra implementation to
// the CompressedMatrix interface.
type CLA struct {
	*cla.Matrix
}

func init() {
	Register("CLA",
		func(d *matrix.Dense) CompressedMatrix { return CLA{cla.Compress(d)} },
		func(img []byte) (CompressedMatrix, error) {
			m, err := cla.Deserialize(img)
			if err != nil {
				return nil, err
			}
			return CLA{m}, nil
		})
}

// Scale computes A.*c by scaling the group dictionaries.
func (c CLA) Scale(s float64) CompressedMatrix { return CLA{c.Matrix.Scale(s)} }

// NewKernelPlan returns the batch's kernel plan: the batch itself, whose
// Release has nothing to recycle.
func (c CLA) NewKernelPlan() KernelPlan { return (*claPlan)(c.Matrix) }

// claPlan is CLA's KernelPlan: cla.Matrix's kernels, which compute each
// partial product once per dictionary tuple and distribute it through the
// group's rows. They run on the caller's goroutine; workers is accepted
// for interface symmetry.
type claPlan cla.Matrix

// Release is a no-op: the plan holds no memory of its own.
func (p *claPlan) Release() {}

// MulVecInto computes A·v into dst.
func (p *claPlan) MulVecInto(dst, v []float64, workers int) []float64 {
	return (*cla.Matrix)(p).MulVecInto(dst, v)
}

// VecMulInto computes v·A into dst.
func (p *claPlan) VecMulInto(dst, v []float64, workers int) []float64 {
	return (*cla.Matrix)(p).VecMulInto(dst, v)
}

// MulMatInto computes A·M into dst.
func (p *claPlan) MulMatInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	return (*cla.Matrix)(p).MulMatInto(dst, m)
}

// MatMulInto computes M·A into dst.
func (p *claPlan) MatMulInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	return (*cla.Matrix)(p).MatMulInto(dst, m)
}
