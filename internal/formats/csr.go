package formats

import (
	"fmt"
	"sync"

	"toc/internal/bitpack"
	"toc/internal/matrix"
)

// CSR is the standard compressed sparse row encoding: per row, only the
// non-zero values and their column indexes are stored. It is also the
// paper's TOC_SPARSE ablation rung (Figures 6 and 10), TOC's sparse
// encoding with no logical or physical layer: per tuple, its
// column-index:value pairs.
type CSR struct {
	rows, cols int
	starts     []uint32
	colIdx     []uint32
	vals       []float64
}

func init() {
	Register("CSR", encodeCSR, deserializeCSR)
	// TOC_SPARSE stores exactly CSR's three arrays, so it is CSR.
	Register("TOC_SPARSE", encodeCSR, deserializeCSR)
}

func encodeCSR(d *matrix.Dense) CompressedMatrix {
	starts, cols, vals := csrParts(d)
	return &CSR{rows: d.Rows(), cols: d.Cols(), starts: starts, colIdx: cols, vals: vals}
}

// Serialize writes header, row starts, column indexes and values.
func (e *CSR) Serialize() []byte {
	out := putHeader(make([]byte, 0, e.CompressedSize()), magicCSR, e.rows, e.cols, len(e.vals))
	out = bitpack.AppendU32s(out, e.starts)
	out = bitpack.AppendU32s(out, e.colIdx)
	return bitpack.AppendF64s(out, e.vals)
}

func deserializeCSR(img []byte) (CompressedMatrix, error) {
	r := bitpack.NewReader(img)
	rows, cols, nnz, err := readHeader(&r, magicCSR)
	if err != nil {
		return nil, err
	}
	e := &CSR{rows: rows, cols: cols, starts: r.U32s(rows + 1), colIdx: r.U32s(nnz), vals: r.F64s(nnz)}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("formats: CSR image: %w", err)
	}
	if err := validateCSRParts(rows, cols, e.starts, e.colIdx, nnz); err != nil {
		return nil, err
	}
	return e, nil
}

// Rows returns the number of tuples.
func (e *CSR) Rows() int { return e.rows }

// Cols returns the number of columns.
func (e *CSR) Cols() int { return e.cols }

// CompressedSize counts the header, row starts (4 B each), column indexes
// (4 B each) and values (8 B each) — exactly len(Serialize()).
func (e *CSR) CompressedSize() int {
	return wireHeaderSize + 4*len(e.starts) + 4*len(e.colIdx) + 8*len(e.vals)
}

// Decode expands the sparse rows into a dense matrix.
func (e *CSR) Decode() *matrix.Dense {
	d := matrix.NewDense(e.rows, e.cols)
	for i := 0; i < e.rows; i++ {
		row := d.Row(i)
		for k := e.starts[i]; k < e.starts[i+1]; k++ {
			row[e.colIdx[k]] = e.vals[k]
		}
	}
	return d
}

// Scale computes A.*c by scaling the stored non-zero values.
func (e *CSR) Scale(c float64) CompressedMatrix {
	vals := make([]float64, len(e.vals))
	for i, v := range e.vals {
		vals[i] = v * c
	}
	return &CSR{rows: e.rows, cols: e.cols, starts: e.starts, colIdx: e.colIdx, vals: vals}
}

// NewKernelPlan returns the batch's kernel plan. CSR has no per-batch
// decode state to build, so the plan is the batch itself and Release has
// nothing to recycle. A·M splits its result rows across workers, M·A the
// rows of M, each output element one sequential reduction whatever the
// split.
func (e *CSR) NewKernelPlan() KernelPlan { return (*csrPlan)(e) }

// csrPlan is CSR's KernelPlan: the four Table 1 multiplications as flat
// walks over starts/colIdx/vals. Every output element folds its terms in
// nonzero order from +0, the order of the textbook loops, so the result
// bits are the same at every worker count.
type csrPlan CSR

// Release is a no-op: the plan holds no memory of its own.
func (p *csrPlan) Release() {}

// MulVecInto computes A·v into dst (length rows, fully overwritten) with
// a 4-way unrolled single-chain accumulation per row: the fold order is
// the sequential one, only the loop control is amortized. workers is
// accepted for interface symmetry.
func (p *csrPlan) MulVecInto(dst, v []float64, workers int) []float64 {
	if len(v) != p.cols {
		panic(fmt.Sprintf("formats: CSR MulVec dim mismatch %d != %d", len(v), p.cols))
	}
	r := matrix.IntoVec(dst, p.rows, false, "formats: CSR plan MulVecInto")
	starts, cols, vals := p.starts[:p.rows+1], p.colIdx, p.vals
	r = r[:p.rows]
	for i := range r {
		cs := cols[starts[i]:starts[i+1]]
		vs := vals[starts[i]:starts[i+1]]
		var s float64
		for len(cs) >= 4 && len(vs) >= 4 {
			s += vs[0] * v[cs[0]]
			s += vs[1] * v[cs[1]]
			s += vs[2] * v[cs[2]]
			s += vs[3] * v[cs[3]]
			cs, vs = cs[4:], vs[4:]
		}
		for len(cs) >= 1 && len(vs) >= 1 {
			s += vs[0] * v[cs[0]]
			cs, vs = cs[1:], vs[1:]
		}
		r[i] = s
	}
	return r
}

// VecMulInto computes v·A into dst (length cols, zeroed first), skipping
// the rows whose weight is zero. workers is accepted for interface
// symmetry.
func (p *csrPlan) VecMulInto(dst, v []float64, workers int) []float64 {
	if len(v) != p.rows {
		panic(fmt.Sprintf("formats: CSR VecMul dim mismatch %d != %d", len(v), p.rows))
	}
	r := matrix.IntoVec(dst, p.cols, true, "formats: CSR plan VecMulInto")
	starts, cols, vals := p.starts[:p.rows+1], p.colIdx, p.vals
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		cs := cols[starts[i]:starts[i+1]]
		vs := vals[starts[i]:starts[i+1]]
		vs = vs[:len(cs)]
		for k, c := range cs {
			r[c] += vi * vs[k]
		}
	}
	return r
}

// MulMatInto computes A·M, M being cols × p, into dst (rows × p, zeroed
// first). workers > 1 splits the result rows.
func (p *csrPlan) MulMatInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	if m.Rows() != p.cols {
		panic(fmt.Sprintf("formats: CSR MulMat dim mismatch %d != %d", m.Rows(), p.cols))
	}
	r := matrix.IntoDense(dst, p.rows, m.Cols(), "formats: CSR plan MulMatInto")
	if workers = min(workers, p.rows); workers > 1 {
		forEachSpan(p.rows, workers, func(lo, hi int) { p.mulMatRows(m, r, lo, hi) })
	} else {
		p.mulMatRows(m, r, 0, p.rows)
	}
	return r
}

// mulMatRows is A·M for result rows [lo,hi): the flat sparse walk,
// accumulating into the zeroed r with the loop over the independent
// result columns 4-way unrolled.
func (p *csrPlan) mulMatRows(m *matrix.Dense, r *matrix.Dense, lo, hi int) {
	starts, cols, vals := p.starts[:p.rows+1], p.colIdx, p.vals
	for i := lo; i < hi; i++ {
		ri := r.Row(i)
		for k := starts[i]; k < starts[i+1]; k++ {
			val := vals[k]
			mr := m.Row(int(cols[k]))
			rw := ri
			for len(rw) >= 4 && len(mr) >= 4 {
				rw[0] += val * mr[0]
				rw[1] += val * mr[1]
				rw[2] += val * mr[2]
				rw[3] += val * mr[3]
				rw, mr = rw[4:], mr[4:]
			}
			for len(rw) >= 1 && len(mr) >= 1 {
				rw[0] += val * mr[0]
				rw, mr = rw[1:], mr[1:]
			}
		}
	}
}

// MatMulInto computes M·A, M being p × rows, into dst (p × cols, zeroed
// first). workers > 1 splits the rows of M.
func (p *csrPlan) MatMulInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	if m.Cols() != p.rows {
		panic(fmt.Sprintf("formats: CSR MatMul dim mismatch %d != %d", m.Cols(), p.rows))
	}
	r := matrix.IntoDense(dst, m.Rows(), p.cols, "formats: CSR plan MatMulInto")
	if workers = min(workers, m.Rows()); workers > 1 {
		forEachSpan(m.Rows(), workers, func(klo, khi int) { p.matMulRows(m, r, klo, khi) })
	} else {
		p.matMulRows(m, r, 0, m.Rows())
	}
	return r
}

// matMulRows is M·A for result rows [klo,khi). The result row is the
// outer loop: for a fixed output row the (i,k) nonzero scan order is the
// textbook one, so every result element folds in that order, while M's
// row and the result row are contiguous slices instead of strided column
// walks.
func (p *csrPlan) matMulRows(m *matrix.Dense, r *matrix.Dense, klo, khi int) {
	starts, cols, vals := p.starts[:p.rows+1], p.colIdx, p.vals
	for row := klo; row < khi; row++ {
		mrow := m.Row(row)[:p.rows]
		rrow := r.Row(row)
		for i, mi := range mrow {
			cs := cols[starts[i]:starts[i+1]]
			vs := vals[starts[i]:starts[i+1]]
			vs = vs[:len(cs)]
			for k, c := range cs {
				rrow[c] += mi * vs[k]
			}
		}
	}
}

// forEachSpan splits [0,n) into at most workers equal-width spans and
// runs fn on each concurrently, waiting for all of them.
func forEachSpan(n, workers int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	span := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += span {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+span, n))
	}
	wg.Wait()
}
