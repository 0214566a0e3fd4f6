package cla

import (
	"fmt"

	"toc/internal/bitpack"
	"toc/internal/matrix"
)

// Matrix operations on CLA groups. The pattern throughout: compute each
// partial product once per distinct dictionary tuple, then distribute it
// through the group's row structure (DDC indexes, OLE offset lists, RLE
// runs), so redundant rows never repeat arithmetic.

// Rows returns the number of tuples in the mini-batch.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns of the original matrix.
func (m *Matrix) Cols() int { return m.cols }

// CompressedSize returns the total encoded size in bytes.
func (m *Matrix) CompressedSize() int {
	total := 16 // matrix header
	offW := bitpack.BytesPerInt(uint32(max(m.rows-1, 0)))
	for _, g := range m.groups {
		w := len(g.cols)
		total += 8 + 4*w // group header + column list
		switch g.kind {
		case kindDDC:
			distinct := len(g.dict) / max(w, 1)
			total += 8*len(g.dict) + bitpack.BytesPerInt(uint32(max(distinct-1, 0)))*len(g.rowIdx)
		case kindOLE:
			total += 8 * len(g.dict)
			for _, lst := range g.offsets {
				total += 4 + offW*len(lst)
			}
		case kindRLE:
			total += 8 * len(g.dict)
			for _, rs := range g.runs {
				total += 4 + 2*offW*len(rs)
			}
		case kindUC:
			total += 8 * len(g.raw)
		}
	}
	return total
}

// Decode losslessly reconstructs the original dense mini-batch.
func (m *Matrix) Decode() *matrix.Dense {
	d := matrix.NewDense(m.rows, m.cols)
	for _, g := range m.groups {
		w := len(g.cols)
		switch g.kind {
		case kindDDC:
			for i, t := range g.rowIdx {
				for k, c := range g.cols {
					d.Set(i, c, g.dict[int(t)*w+k])
				}
			}
		case kindOLE:
			for t, lst := range g.offsets {
				for _, row := range lst {
					for k, c := range g.cols {
						d.Set(int(row), c, g.dict[t*w+k])
					}
				}
			}
		case kindRLE:
			for t, rs := range g.runs {
				for _, r := range rs {
					for row := r.start; row < r.start+r.length; row++ {
						for k, c := range g.cols {
							d.Set(int(row), c, g.dict[t*w+k])
						}
					}
				}
			}
		case kindUC:
			for i := 0; i < m.rows; i++ {
				for k, c := range g.cols {
					d.Set(i, c, g.raw[i*w+k])
				}
			}
		}
	}
	return d
}

// Scale computes the sparse-safe A.*c by scaling dictionaries (and UC raw
// data) only.
func (m *Matrix) Scale(c float64) *Matrix {
	nm := &Matrix{rows: m.rows, cols: m.cols, groups: make([]*group, len(m.groups))}
	for i, g := range m.groups {
		ng := &group{kind: g.kind, cols: g.cols, rowIdx: g.rowIdx, offsets: g.offsets, runs: g.runs}
		if g.dict != nil {
			ng.dict = make([]float64, len(g.dict))
			for k, v := range g.dict {
				ng.dict[k] = v * c
			}
		}
		if g.raw != nil {
			ng.raw = make([]float64, len(g.raw))
			for k, v := range g.raw {
				ng.raw[k] = v * c
			}
		}
		nm.groups[i] = ng
	}
	return nm
}

// MulVecInto computes A·v into dst (length Rows, overwritten; nil
// allocates it): one dot product per dictionary tuple, distributed to
// rows.
func (m *Matrix) MulVecInto(dst, v []float64) []float64 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("cla: MulVec dim mismatch %d != %d", len(v), m.cols))
	}
	r := matrix.IntoVec(dst, m.rows, true, "cla: MulVecInto")
	for _, g := range m.groups {
		w := len(g.cols)
		switch g.kind {
		case kindUC:
			for i := 0; i < m.rows; i++ {
				var s float64
				for k, c := range g.cols {
					s += g.raw[i*w+k] * v[c]
				}
				r[i] += s
			}
			continue
		default:
		}
		// per-tuple dot products
		distinct := len(g.dict) / max(w, 1)
		dots := make([]float64, distinct)
		for t := 0; t < distinct; t++ {
			var s float64
			for k, c := range g.cols {
				s += g.dict[t*w+k] * v[c]
			}
			dots[t] = s
		}
		switch g.kind {
		case kindDDC:
			for i, t := range g.rowIdx {
				r[i] += dots[t]
			}
		case kindOLE:
			for t, lst := range g.offsets {
				dt := dots[t]
				for _, row := range lst {
					r[row] += dt
				}
			}
		case kindRLE:
			for t, rs := range g.runs {
				dt := dots[t]
				for _, rn := range rs {
					for row := rn.start; row < rn.start+rn.length; row++ {
						r[row] += dt
					}
				}
			}
		}
	}
	return r
}

// VecMulInto computes v·A into dst (length Cols, overwritten; nil
// allocates it): per-tuple accumulation of v, then one dictionary pass.
func (m *Matrix) VecMulInto(dst, v []float64) []float64 {
	if len(v) != m.rows {
		panic(fmt.Sprintf("cla: VecMul dim mismatch %d != %d", len(v), m.rows))
	}
	r := matrix.IntoVec(dst, m.cols, true, "cla: VecMulInto")
	for _, g := range m.groups {
		w := len(g.cols)
		if g.kind == kindUC {
			for i := 0; i < m.rows; i++ {
				vi := v[i]
				if vi == 0 {
					continue
				}
				for k, c := range g.cols {
					r[c] += vi * g.raw[i*w+k]
				}
			}
			continue
		}
		distinct := len(g.dict) / max(w, 1)
		acc := make([]float64, distinct)
		switch g.kind {
		case kindDDC:
			for i, t := range g.rowIdx {
				acc[t] += v[i]
			}
		case kindOLE:
			for t, lst := range g.offsets {
				var s float64
				for _, row := range lst {
					s += v[row]
				}
				acc[t] = s
			}
		case kindRLE:
			for t, rs := range g.runs {
				var s float64
				for _, rn := range rs {
					for row := rn.start; row < rn.start+rn.length; row++ {
						s += v[row]
					}
				}
				acc[t] = s
			}
		}
		for t := 0; t < distinct; t++ {
			at := acc[t]
			if at == 0 {
				continue
			}
			for k, c := range g.cols {
				r[c] += g.dict[t*w+k] * at
			}
		}
	}
	return r
}

// MulMatInto computes A·M (M is cols × p) into dst (Rows × p,
// overwritten; nil allocates it).
func (m *Matrix) MulMatInto(dst, mm *matrix.Dense) *matrix.Dense {
	if mm.Rows() != m.cols {
		panic(fmt.Sprintf("cla: MulMat dim mismatch %d != %d", mm.Rows(), m.cols))
	}
	p := mm.Cols()
	r := matrix.IntoDense(dst, m.rows, p, "cla: MulMatInto")
	for _, g := range m.groups {
		w := len(g.cols)
		if g.kind == kindUC {
			for i := 0; i < m.rows; i++ {
				ri := r.Row(i)
				for k, c := range g.cols {
					val := g.raw[i*w+k]
					if val == 0 {
						continue
					}
					mrow := mm.Row(c)
					for j, mv := range mrow {
						ri[j] += val * mv
					}
				}
			}
			continue
		}
		distinct := len(g.dict) / max(w, 1)
		// per-tuple partial result rows
		dots := make([]float64, distinct*p)
		for t := 0; t < distinct; t++ {
			dt := dots[t*p : (t+1)*p]
			for k, c := range g.cols {
				val := g.dict[t*w+k]
				if val == 0 {
					continue
				}
				mrow := mm.Row(c)
				for j, mv := range mrow {
					dt[j] += val * mv
				}
			}
		}
		addRow := func(row int, t uint32) {
			ri := r.Row(row)
			dt := dots[int(t)*p : (int(t)+1)*p]
			for j := range ri {
				ri[j] += dt[j]
			}
		}
		switch g.kind {
		case kindDDC:
			for i, t := range g.rowIdx {
				addRow(i, t)
			}
		case kindOLE:
			for t, lst := range g.offsets {
				for _, row := range lst {
					addRow(int(row), uint32(t))
				}
			}
		case kindRLE:
			for t, rs := range g.runs {
				for _, rn := range rs {
					for row := rn.start; row < rn.start+rn.length; row++ {
						addRow(int(row), uint32(t))
					}
				}
			}
		}
	}
	return r
}

// MatMulInto computes M·A (M is p × rows) into dst (p × Cols,
// overwritten; nil allocates it).
func (m *Matrix) MatMulInto(dst, mm *matrix.Dense) *matrix.Dense {
	if mm.Cols() != m.rows {
		panic(fmt.Sprintf("cla: MatMul dim mismatch %d != %d", mm.Cols(), m.rows))
	}
	p := mm.Rows()
	r := matrix.IntoDense(dst, p, m.cols, "cla: MatMulInto")
	for _, g := range m.groups {
		w := len(g.cols)
		if g.kind == kindUC {
			for row := 0; row < p; row++ {
				rr := r.Row(row)
				for i := 0; i < m.rows; i++ {
					mv := mm.At(row, i)
					if mv == 0 {
						continue
					}
					for k, c := range g.cols {
						rr[c] += mv * g.raw[i*w+k]
					}
				}
			}
			continue
		}
		distinct := len(g.dict) / max(w, 1)
		// acc[t*p+row] accumulates M[row, i] over rows i carrying tuple t.
		acc := make([]float64, distinct*p)
		addTo := func(t uint32, i int) {
			at := acc[int(t)*p : (int(t)+1)*p]
			for row := 0; row < p; row++ {
				at[row] += mm.At(row, i)
			}
		}
		switch g.kind {
		case kindDDC:
			for i, t := range g.rowIdx {
				addTo(t, i)
			}
		case kindOLE:
			for t, lst := range g.offsets {
				for _, row := range lst {
					addTo(uint32(t), int(row))
				}
			}
		case kindRLE:
			for t, rs := range g.runs {
				for _, rn := range rs {
					for row := rn.start; row < rn.start+rn.length; row++ {
						addTo(uint32(t), int(row))
					}
				}
			}
		}
		for t := 0; t < distinct; t++ {
			at := acc[t*p : (t+1)*p]
			for k, c := range g.cols {
				val := g.dict[t*w+k]
				if val == 0 {
					continue
				}
				for row := 0; row < p; row++ {
					r.Set(row, c, r.At(row, c)+val*at[row])
				}
			}
		}
	}
	return r
}
