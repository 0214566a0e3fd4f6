// Package matrix provides the dense row-major matrix type shared by every
// compression scheme in this repository, together with the uncompressed
// (baseline) matrix kernels the paper calls DEN execution.
//
// All compressed execution techniques in internal/core and internal/formats
// are verified against the kernels in this package.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64 values.
// The zero value is an empty 0x0 matrix.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// NewDense allocates a rows x cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFromRows builds a matrix from per-row slices, copying them.
// All rows must have equal length.
func NewDenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	d := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("matrix: ragged row %d: len %d != %d", i, len(r), c))
		}
		copy(d.data[i*c:(i+1)*c], r)
	}
	return d
}

// Reshape makes d a rows x cols matrix over its own storage, which grows
// only when too small, and returns d: how a pooled matrix is sized for
// the next product that fully overwrites it. The contents are
// unspecified afterwards.
func (d *Dense) Reshape(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(d.data) < n {
		d.data = make([]float64, n)
	}
	d.rows, d.cols, d.data = rows, cols, d.data[:n]
	return d
}

// IntoVec is the destination rule of the compressed kernel plans' Into
// methods for a length-n result: a nil dst allocates it, and a
// caller-owned dst must have exactly that length (kernel names the
// method in the panic) and is zeroed first when zero is set, for kernels
// that accumulate rather than overwrite.
func IntoVec(dst []float64, n int, zero bool, kernel string) []float64 {
	if dst == nil {
		return make([]float64, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("%s dst length %d != %d", kernel, len(dst), n))
	}
	if zero {
		clear(dst)
	}
	return dst
}

// IntoDense is IntoVec for a rows x cols result, which is always zeroed:
// every matrix kernel accumulates.
func IntoDense(dst *Dense, rows, cols int, kernel string) *Dense {
	if dst == nil {
		return NewDense(rows, cols)
	}
	if dst.rows != rows || dst.cols != cols {
		panic(fmt.Sprintf("%s dst shape %dx%d != %dx%d", kernel, dst.rows, dst.cols, rows, cols))
	}
	clear(dst.data)
	return dst
}

// Rows returns the number of rows.
func (d *Dense) Rows() int { return d.rows }

// Cols returns the number of columns.
func (d *Dense) Cols() int { return d.cols }

// At returns the element at row i, column j.
func (d *Dense) At(i, j int) float64 { return d.data[i*d.cols+j] }

// Set assigns the element at row i, column j.
func (d *Dense) Set(i, j int, v float64) { d.data[i*d.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (d *Dense) Row(i int) []float64 { return d.data[i*d.cols : (i+1)*d.cols] }

// Data returns the underlying row-major storage (aliased, not copied).
func (d *Dense) Data() []float64 { return d.data }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.rows, d.cols)
	copy(c.data, d.data)
	return c
}

// SliceRows returns a new matrix holding rows [from, to) (copied).
func (d *Dense) SliceRows(from, to int) *Dense {
	if from < 0 || to > d.rows || from > to {
		panic(fmt.Sprintf("matrix: bad row slice [%d,%d) of %d", from, to, d.rows))
	}
	s := NewDense(to-from, d.cols)
	copy(s.data, d.data[from*d.cols:to*d.cols])
	return s
}

// ViewRows returns rows [from, to) as a matrix over d's own storage:
// writes through either show in both. The view's capacity ends at row
// to, so a Reshape of it can reach no row of d outside the view.
func (d *Dense) ViewRows(from, to int) *Dense {
	if from < 0 || to > d.rows || from > to {
		panic(fmt.Sprintf("matrix: bad row view [%d,%d) of %d", from, to, d.rows))
	}
	return &Dense{rows: to - from, cols: d.cols, data: d.data[from*d.cols : to*d.cols : to*d.cols]}
}

// NNZ counts the non-zero entries.
func (d *Dense) NNZ() int {
	n := 0
	for _, v := range d.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns nnz / (rows*cols), matching the paper's Table 5 definition.
// An empty matrix reports 0.
func (d *Dense) Sparsity() float64 {
	if len(d.data) == 0 {
		return 0
	}
	return float64(d.NNZ()) / float64(len(d.data))
}

// Equal reports whether two matrices have the same shape and identical values.
func (d *Dense) Equal(o *Dense) bool {
	if d.rows != o.rows || d.cols != o.cols {
		return false
	}
	for i, v := range d.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports shape equality and element-wise |a-b| <= tol.
func (d *Dense) EqualApprox(o *Dense, tol float64) bool {
	if d.rows != o.rows || d.cols != o.cols {
		return false
	}
	for i, v := range d.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging.
func (d *Dense) String() string {
	s := fmt.Sprintf("Dense %dx%d", d.rows, d.cols)
	if d.rows*d.cols <= 64 {
		s += " ["
		for i := 0; i < d.rows; i++ {
			if i > 0 {
				s += "; "
			}
			for j := 0; j < d.cols; j++ {
				if j > 0 {
					s += " "
				}
				s += fmt.Sprintf("%g", d.At(i, j))
			}
		}
		s += "]"
	}
	return s
}
