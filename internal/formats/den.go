package formats

import "toc/internal/matrix"

// DEN is the paper's uncompressed baseline: the matrix stored row by row,
// each value in IEEE-754 double format. Its plan runs the plain dense
// kernels.
type DEN struct {
	d *matrix.Dense
}

func init() {
	Register("DEN",
		func(d *matrix.Dense) CompressedMatrix { return &DEN{d: d.Clone()} },
		func(img []byte) (CompressedMatrix, error) {
			d, err := matrix.DeserializeDense(img)
			if err != nil {
				return nil, err
			}
			return &DEN{d: d}, nil
		})
}

// Serialize returns the DEN binary image (row-major IEEE-754 doubles).
func (e *DEN) Serialize() []byte { return e.d.Serialize() }

// Rows returns the number of tuples.
func (e *DEN) Rows() int { return e.d.Rows() }

// Cols returns the number of columns.
func (e *DEN) Cols() int { return e.d.Cols() }

// CompressedSize returns the DEN binary size (header + 8 bytes per value).
func (e *DEN) CompressedSize() int { return e.d.SerializedSize() }

// Decode returns a copy of the stored matrix.
func (e *DEN) Decode() *matrix.Dense { return e.d.Clone() }

// Scale computes A.*c.
func (e *DEN) Scale(c float64) CompressedMatrix { return &DEN{d: e.d.Scale(c)} }

// NewKernelPlan returns the batch's kernel plan: the batch itself, whose
// Release has nothing to recycle.
func (e *DEN) NewKernelPlan() KernelPlan { return (*denPlan)(e) }

// denPlan is DEN's KernelPlan: internal/matrix's dense kernels, the
// ground truth every other scheme is tested against. They run on the
// caller's goroutine; workers is accepted for interface symmetry.
type denPlan DEN

// Release is a no-op: the plan holds no memory of its own.
func (p *denPlan) Release() {}

// MulVecInto computes A·v into dst.
func (p *denPlan) MulVecInto(dst, v []float64, workers int) []float64 { return p.d.MulVecInto(dst, v) }

// VecMulInto computes v·A into dst.
func (p *denPlan) VecMulInto(dst, v []float64, workers int) []float64 { return p.d.VecMulInto(dst, v) }

// MulMatInto computes A·M into dst.
func (p *denPlan) MulMatInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	r := matrix.IntoDense(dst, p.d.Rows(), m.Cols(), "formats: DEN plan MulMatInto")
	matrix.MulInto(r.Data(), p.d, m)
	return r
}

// MatMulInto computes M·A into dst.
func (p *denPlan) MatMulInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	r := matrix.IntoDense(dst, m.Rows(), p.d.Cols(), "formats: DEN plan MatMulInto")
	matrix.MulInto(r.Data(), m, p.d)
	return r
}
