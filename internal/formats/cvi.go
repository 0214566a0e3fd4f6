package formats

import (
	"encoding/binary"
	"fmt"

	"toc/internal/bitpack"
	"toc/internal/matrix"
)

// CVI is CSR-VI (Kourtis et al., cited as [21]): CSR whose non-zero values
// are dictionary-encoded with value indexing. The sparse-safe element-wise
// ops touch only the dictionary, which is why CVI matches TOC on A.*c in
// the paper's Figure 8.
type CVI struct {
	rows, cols int
	starts     []uint32
	colIdx     []uint32
	valIdx     []uint32  // per-nonzero dictionary index
	dict       []float64 // unique values
	size       int       // cached len(Serialize())
}

func init() {
	Register("CVI",
		func(d *matrix.Dense) CompressedMatrix {
			starts, cols, vals := csrParts(d)
			vi := bitpack.BuildValueIndex(vals)
			return &CVI{
				rows: d.Rows(), cols: d.Cols(),
				starts: starts, colIdx: cols,
				valIdx: vi.Indexes(), dict: vi.Values(),
			}
		},
		deserializeCVI)
}

// Serialize writes header, row starts, column indexes, the bit-packed
// value indexes and the value dictionary.
func (e *CVI) Serialize() []byte {
	out := putHeader(make([]byte, 0, e.CompressedSize()), magicCVI, e.rows, e.cols, len(e.valIdx))
	out = bitpack.AppendU32s(out, e.starts)
	out = bitpack.AppendU32s(out, e.colIdx)
	out = bitpack.Pack(e.valIdx).AppendTo(out)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(e.dict)))
	return bitpack.AppendF64s(out, e.dict)
}

func deserializeCVI(img []byte) (CompressedMatrix, error) {
	r := bitpack.NewReader(img)
	rows, cols, nnz, err := readHeader(&r, magicCVI)
	if err != nil {
		return nil, err
	}
	starts, colIdx, idxArr := r.U32s(rows+1), r.U32s(nnz), r.Array()
	dict := r.F64s(r.Count("dictionary values", 8))
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("formats: CVI image: %w", err)
	}
	if err := validateCSRParts(rows, cols, starts, colIdx, nnz); err != nil {
		return nil, err
	}
	valIdx := idxArr.Unpack()
	if len(valIdx) != nnz {
		return nil, fmt.Errorf("formats: CVI value indexes %d != nnz %d", len(valIdx), nnz)
	}
	for i, ix := range valIdx {
		if int(ix) >= len(dict) {
			return nil, fmt.Errorf("formats: CVI dict index %d out of range %d at %d", ix, len(dict), i)
		}
	}
	return &CVI{rows: rows, cols: cols, starts: starts, colIdx: colIdx,
		valIdx: valIdx, dict: dict, size: len(img)}, nil
}

// Rows returns the number of tuples.
func (e *CVI) Rows() int { return e.rows }

// Cols returns the number of columns.
func (e *CVI) Cols() int { return e.cols }

// CompressedSize counts the header, row starts, column indexes, the
// bit-packed value indexes and the value dictionary — len(Serialize()).
func (e *CVI) CompressedSize() int {
	if e.size == 0 {
		idxBytes := bitpack.Pack(e.valIdx).EncodedSize()
		e.size = wireHeaderSize + 4*len(e.starts) + 4*len(e.colIdx) + idxBytes + 4 + 8*len(e.dict)
	}
	return e.size
}

// Decode expands to a dense matrix via dictionary lookups.
func (e *CVI) Decode() *matrix.Dense {
	d := matrix.NewDense(e.rows, e.cols)
	for i := 0; i < e.rows; i++ {
		row := d.Row(i)
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			row[e.colIdx[k]] = e.dict[e.valIdx[k]]
		}
	}
	return d
}

// Scale computes A.*c by scaling only the value dictionary.
func (e *CVI) Scale(c float64) CompressedMatrix {
	dict := make([]float64, len(e.dict))
	for i, v := range e.dict {
		dict[i] = v * c
	}
	return &CVI{rows: e.rows, cols: e.cols, starts: e.starts,
		colIdx: e.colIdx, valIdx: e.valIdx, dict: dict, size: e.size}
}

// NewKernelPlan returns the batch's kernel plan: the batch itself, whose
// Release has nothing to recycle.
func (e *CVI) NewKernelPlan() KernelPlan { return (*cviPlan)(e) }

// cviPlan is CVI's KernelPlan: CSR's walks over the non-zeros, each value
// looked up in the dictionary. Its kernels run on the caller's goroutine;
// workers is accepted for interface symmetry.
type cviPlan CVI

// Release is a no-op: the plan holds no memory of its own.
func (e *cviPlan) Release() {}

// MulVecInto computes A·v into dst.
func (e *cviPlan) MulVecInto(dst, v []float64, workers int) []float64 {
	if len(v) != e.cols {
		panic(fmt.Sprintf("formats: CVI MulVec dim mismatch %d != %d", len(v), e.cols))
	}
	r := matrix.IntoVec(dst, e.rows, false, "formats: CVI plan MulVecInto")
	for i := 0; i < e.rows; i++ {
		var s float64
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			s += e.dict[e.valIdx[k]] * v[e.colIdx[k]]
		}
		r[i] = s
	}
	return r
}

// VecMulInto computes v·A into dst.
func (e *cviPlan) VecMulInto(dst, v []float64, workers int) []float64 {
	if len(v) != e.rows {
		panic(fmt.Sprintf("formats: CVI VecMul dim mismatch %d != %d", len(v), e.rows))
	}
	r := matrix.IntoVec(dst, e.cols, true, "formats: CVI plan VecMulInto")
	for i := 0; i < e.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			r[e.colIdx[k]] += vi * e.dict[e.valIdx[k]]
		}
	}
	return r
}

// MulMatInto computes A·M into dst.
func (e *cviPlan) MulMatInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	if m.Rows() != e.cols {
		panic(fmt.Sprintf("formats: CVI MulMat dim mismatch %d != %d", m.Rows(), e.cols))
	}
	r := matrix.IntoDense(dst, e.rows, m.Cols(), "formats: CVI plan MulMatInto")
	for i := 0; i < e.rows; i++ {
		ri := r.Row(i)
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			val := e.dict[e.valIdx[k]]
			mrow := m.Row(int(e.colIdx[k]))
			for j, mv := range mrow {
				ri[j] += val * mv
			}
		}
	}
	return r
}

// MatMulInto computes M·A into dst.
func (e *cviPlan) MatMulInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	if m.Cols() != e.rows {
		panic(fmt.Sprintf("formats: CVI MatMul dim mismatch %d != %d", m.Cols(), e.rows))
	}
	p := m.Rows()
	r := matrix.IntoDense(dst, p, e.cols, "formats: CVI plan MatMulInto")
	for i := 0; i < e.rows; i++ {
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			col := int(e.colIdx[k])
			val := e.dict[e.valIdx[k]]
			for row := 0; row < p; row++ {
				r.Set(row, col, r.At(row, col)+m.At(row, i)*val)
			}
		}
	}
	return r
}
