package formats

import (
	"fmt"

	"toc/internal/bitpack"
	"toc/internal/core"
	"toc/internal/matrix"
)

// DVI is DEN plus value indexing: every cell (zeros included) stores a
// bit-packed index into a dictionary of unique values. It shines when the
// whole matrix has few distinct values regardless of sparsity.
type DVI struct {
	rows, cols int
	idx        []uint32  // rows*cols dictionary indexes, row-major
	dict       []float64 // unique values
	size       int       // cached len(Serialize())
}

func init() {
	Register("DVI",
		func(d *matrix.Dense) CompressedMatrix {
			dict, idx := core.IndexValues(d.Data())
			return &DVI{rows: d.Rows(), cols: d.Cols(), idx: idx, dict: dict}
		},
		deserializeDVI)
}

// Serialize writes header, the bit-packed cell indexes and the dictionary.
func (e *DVI) Serialize() []byte {
	out := putHeader(make([]byte, 0, e.CompressedSize()), magicDVI, e.rows, e.cols, len(e.dict))
	out = bitpack.AppendArray(out, e.idx, dictTop(e.dict))
	return bitpack.AppendF64s(out, e.dict)
}

func deserializeDVI(img []byte) (CompressedMatrix, error) {
	r := bitpack.NewReader(img)
	rows, cols, dictLen, err := readHeader(&r, magicDVI)
	if err != nil {
		return nil, err
	}
	idxArr, dict := r.Array(), r.F64s(dictLen)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("formats: DVI image: %w", err)
	}
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("formats: DVI negative dims %dx%d", rows, cols)
	}
	idx := idxArr.Unpack()
	if len(idx) != rows*cols {
		return nil, fmt.Errorf("formats: DVI has %d indexes for %dx%d", len(idx), rows, cols)
	}
	for i, ix := range idx {
		if int(ix) >= dictLen {
			return nil, fmt.Errorf("formats: DVI dict index %d out of range %d at %d", ix, dictLen, i)
		}
	}
	return &DVI{rows: rows, cols: cols, idx: idx, dict: dict, size: len(img)}, nil
}

// Rows returns the number of tuples.
func (e *DVI) Rows() int { return e.rows }

// Cols returns the number of columns.
func (e *DVI) Cols() int { return e.cols }

// CompressedSize counts the header, the bit-packed cell indexes and the
// value dictionary — exactly len(Serialize()).
func (e *DVI) CompressedSize() int {
	if e.size == 0 {
		e.size = wireHeaderSize + bitpack.ArraySize(len(e.idx), dictTop(e.dict)) + 8*len(e.dict)
	}
	return e.size
}

// Decode expands to a dense matrix via dictionary lookups.
func (e *DVI) Decode() *matrix.Dense {
	d := matrix.NewDense(e.rows, e.cols)
	data := d.Data()
	for i, ix := range e.idx {
		data[i] = e.dict[ix]
	}
	return d
}

// Scale computes A.*c by scaling only the dictionary.
func (e *DVI) Scale(c float64) CompressedMatrix {
	dict := make([]float64, len(e.dict))
	for i, v := range e.dict {
		dict[i] = v * c
	}
	return &DVI{rows: e.rows, cols: e.cols, idx: e.idx, dict: dict, size: e.size}
}

// NewKernelPlan returns the batch's kernel plan: the batch itself, whose
// Release has nothing to recycle.
func (e *DVI) NewKernelPlan() KernelPlan { return (*dviPlan)(e) }

// dviPlan is DVI's KernelPlan: dense walks over every cell, each value
// looked up in the dictionary. Its kernels run on the caller's goroutine;
// workers is accepted for interface symmetry.
type dviPlan DVI

// Release is a no-op: the plan holds no memory of its own.
func (e *dviPlan) Release() {}

// MulVecInto computes A·v into dst with per-cell dictionary lookups.
func (e *dviPlan) MulVecInto(dst, v []float64, workers int) []float64 {
	if len(v) != e.cols {
		panic(fmt.Sprintf("formats: DVI MulVec dim mismatch %d != %d", len(v), e.cols))
	}
	r := matrix.IntoVec(dst, e.rows, false, "formats: DVI plan MulVecInto")
	for i := 0; i < e.rows; i++ {
		var s float64
		base := i * e.cols
		for j := 0; j < e.cols; j++ {
			s += e.dict[e.idx[base+j]] * v[j]
		}
		r[i] = s
	}
	return r
}

// VecMulInto computes v·A into dst with per-cell dictionary lookups.
func (e *dviPlan) VecMulInto(dst, v []float64, workers int) []float64 {
	if len(v) != e.rows {
		panic(fmt.Sprintf("formats: DVI VecMul dim mismatch %d != %d", len(v), e.rows))
	}
	r := matrix.IntoVec(dst, e.cols, true, "formats: DVI plan VecMulInto")
	for i := 0; i < e.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		base := i * e.cols
		for j := 0; j < e.cols; j++ {
			r[j] += vi * e.dict[e.idx[base+j]]
		}
	}
	return r
}

// MulMatInto computes A·M into dst.
func (e *dviPlan) MulMatInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	if m.Rows() != e.cols {
		panic(fmt.Sprintf("formats: DVI MulMat dim mismatch %d != %d", m.Rows(), e.cols))
	}
	r := matrix.IntoDense(dst, e.rows, m.Cols(), "formats: DVI plan MulMatInto")
	for i := 0; i < e.rows; i++ {
		ri := r.Row(i)
		base := i * e.cols
		for k := 0; k < e.cols; k++ {
			val := e.dict[e.idx[base+k]]
			if val == 0 {
				continue
			}
			mrow := m.Row(k)
			for j, mv := range mrow {
				ri[j] += val * mv
			}
		}
	}
	return r
}

// MatMulInto computes M·A into dst.
func (e *dviPlan) MatMulInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	if m.Cols() != e.rows {
		panic(fmt.Sprintf("formats: DVI MatMul dim mismatch %d != %d", m.Cols(), e.rows))
	}
	p := m.Rows()
	r := matrix.IntoDense(dst, p, e.cols, "formats: DVI plan MatMulInto")
	for row := 0; row < p; row++ {
		rr := r.Row(row)
		for i := 0; i < e.rows; i++ {
			mv := m.At(row, i)
			if mv == 0 {
				continue
			}
			base := i * e.cols
			for j := 0; j < e.cols; j++ {
				rr[j] += mv * e.dict[e.idx[base+j]]
			}
		}
	}
	return r
}
