package matrix

import "fmt"

// The functions in this file are the uncompressed execution techniques the
// paper calls DEN: plain dense kernels used both as the DEN baseline and as
// the ground truth that every compressed kernel is tested against.

// MulVec computes A·v for a dense A, returning a new vector of length Rows.
func (d *Dense) MulVec(v []float64) []float64 { return d.MulVecInto(nil, v) }

// MulVecInto computes A·v into dst (length Rows, fully overwritten; nil
// allocates it) and returns it.
func (d *Dense) MulVecInto(dst, v []float64) []float64 {
	if len(v) != d.cols {
		panic(fmt.Sprintf("matrix: MulVec dim mismatch %d != %d", len(v), d.cols))
	}
	r := IntoVec(dst, d.rows, false, "matrix: MulVecInto")
	for i := 0; i < d.rows; i++ {
		row := d.Row(i)
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		r[i] = s
	}
	return r
}

// VecMul computes v·A for a dense A, returning a new vector of length Cols.
func (d *Dense) VecMul(v []float64) []float64 { return d.VecMulInto(nil, v) }

// VecMulInto computes v·A into dst (length Cols, zeroed first; nil
// allocates it) and returns it.
func (d *Dense) VecMulInto(dst, v []float64) []float64 {
	if len(v) != d.rows {
		panic(fmt.Sprintf("matrix: VecMul dim mismatch %d != %d", len(v), d.rows))
	}
	r := IntoVec(dst, d.cols, true, "matrix: VecMulInto")
	for i := 0; i < d.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := d.Row(i)
		for j, a := range row {
			r[j] += vi * a
		}
	}
	return r
}

// MulMat computes A·M, where M is cols x p. The result is rows x p.
func (d *Dense) MulMat(m *Dense) *Dense {
	r := NewDense(d.rows, m.cols)
	MulInto(r.data, d, m)
	return r
}

// MatMul computes M·A, where M is p x rows. The result is p x cols.
func (d *Dense) MatMul(m *Dense) *Dense {
	r := NewDense(m.rows, d.cols)
	MulInto(r.data, m, d)
	return r
}

// The three Into kernels are the dense products of a network's forward
// and backward pass, written so a training step needs no transpose and
// no fresh matrix: each reads its operands where they lie and fully
// overwrites dst, a row-major slice of exactly the result's size (it may
// be dirty, and may be a window of a larger buffer such as a flat
// gradient). Each is bit-equal to the allocating spelling it replaces:
// every output element is the same left-to-right sum over the shared
// dimension, starting from +0, and a term whose left factor is exactly 0
// is skipped, as MulMat skips it (which is what keeps 0·Inf out of the
// sum). TestDenseIntoKernelsMatchTransposeForm holds them to that.

func checkInto(kernel string, dst []float64, rows, cols, innerA, innerB int) {
	if innerA != innerB {
		panic(fmt.Sprintf("matrix: %s dim mismatch %d != %d", kernel, innerA, innerB))
	}
	if len(dst) != rows*cols {
		panic(fmt.Sprintf("matrix: %s dst length %d != %d*%d", kernel, len(dst), rows, cols))
	}
}

// MulInto computes A·B into dst (a.Rows() × b.Cols()): a.MulMat(b)
// without the allocation.
func MulInto(dst []float64, a, b *Dense) {
	checkInto("MulInto", dst, a.rows, b.cols, a.cols, b.rows)
	p := b.cols
	for i := 0; i < a.rows; i++ {
		ri := dst[i*p : (i+1)*p]
		clear(ri)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			bk := b.Row(k)[:len(ri)]
			for j, bv := range bk {
				ri[j] += av * bv
			}
		}
	}
}

// MulATBInto computes Aᵀ·B into dst (a.Cols() × b.Cols()):
// a.Transpose().MulMat(b) without the transpose. It walks A and B row by
// row — row k of A scatters row k of B into every result row — so each
// result element still accumulates k ascending.
func MulATBInto(dst []float64, a, b *Dense) {
	checkInto("MulATBInto", dst, a.cols, b.cols, a.rows, b.rows)
	p := b.cols
	clear(dst)
	for k := 0; k < a.rows; k++ {
		bk := b.Row(k)
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			ri := dst[i*p : (i+1)*p][:len(bk)]
			for j, bv := range bk {
				ri[j] += av * bv
			}
		}
	}
}

// MulABTInto computes A·Bᵀ into dst (a.Rows() × b.Rows()):
// a.MulMat(b.Transpose()) without the transpose. Each result element is
// the dot product of a row of A with a row of B; four are carried at
// once so the additions of one do not wait on each other's latency.
func MulABTInto(dst []float64, a, b *Dense) {
	checkInto("MulABTInto", dst, a.rows, b.rows, a.cols, b.cols)
	m := b.rows
	for i := 0; i < a.rows; i++ {
		ri := dst[i*m : (i+1)*m]
		ai := a.Row(i)
		j := 0
		for ; j+4 <= m; j += 4 {
			b0, b1, b2, b3 := b.Row(j)[:len(ai)], b.Row(j + 1)[:len(ai)], b.Row(j + 2)[:len(ai)], b.Row(j + 3)[:len(ai)]
			var s0, s1, s2, s3 float64
			for k, av := range ai {
				if av == 0 {
					continue
				}
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			ri[j], ri[j+1], ri[j+2], ri[j+3] = s0, s1, s2, s3
		}
		for ; j < m; j++ {
			bj := b.Row(j)[:len(ai)]
			var s float64
			for k, av := range ai {
				if av == 0 {
					continue
				}
				s += av * bj[k]
			}
			ri[j] = s
		}
	}
}

// TransposeInto writes dᵀ (d.Cols() × d.Rows(), row-major) into dst.
func (d *Dense) TransposeInto(dst []float64) {
	if len(dst) != len(d.data) {
		panic(fmt.Sprintf("matrix: TransposeInto dst length %d != %d*%d", len(dst), d.cols, d.rows))
	}
	for i := 0; i < d.rows; i++ {
		for j, v := range d.Row(i) {
			dst[j*d.rows+i] = v
		}
	}
}

// Scale returns a new matrix c*A (the sparse-safe element-wise A.*c).
func (d *Dense) Scale(c float64) *Dense {
	r := NewDense(d.rows, d.cols)
	for i, v := range d.data {
		r.data[i] = v * c
	}
	return r
}

// AddScalar returns a new matrix A.+c (the sparse-unsafe element-wise op).
func (d *Dense) AddScalar(c float64) *Dense {
	r := NewDense(d.rows, d.cols)
	for i, v := range d.data {
		r.data[i] = v + c
	}
	return r
}

// Add returns a new matrix A+B.
func (d *Dense) Add(o *Dense) *Dense {
	if d.rows != o.rows || d.cols != o.cols {
		panic(fmt.Sprintf("matrix: Add shape mismatch %dx%d vs %dx%d", d.rows, d.cols, o.rows, o.cols))
	}
	r := NewDense(d.rows, d.cols)
	for i, v := range d.data {
		r.data[i] = v + o.data[i]
	}
	return r
}

// Sub returns a new matrix A-B.
func (d *Dense) Sub(o *Dense) *Dense {
	if d.rows != o.rows || d.cols != o.cols {
		panic(fmt.Sprintf("matrix: Sub shape mismatch %dx%d vs %dx%d", d.rows, d.cols, o.rows, o.cols))
	}
	r := NewDense(d.rows, d.cols)
	for i, v := range d.data {
		r.data[i] = v - o.data[i]
	}
	return r
}

// Apply returns a new matrix with f applied to every element.
func (d *Dense) Apply(f func(float64) float64) *Dense {
	r := NewDense(d.rows, d.cols)
	for i, v := range d.data {
		r.data[i] = f(v)
	}
	return r
}

// ApplyInPlace applies f to every element in place.
func (d *Dense) ApplyInPlace(f func(float64) float64) {
	for i, v := range d.data {
		d.data[i] = f(v)
	}
}

// MulElem returns the Hadamard (element-wise) product A.*B.
func (d *Dense) MulElem(o *Dense) *Dense {
	if d.rows != o.rows || d.cols != o.cols {
		panic(fmt.Sprintf("matrix: MulElem shape mismatch %dx%d vs %dx%d", d.rows, d.cols, o.rows, o.cols))
	}
	r := NewDense(d.rows, d.cols)
	for i, v := range d.data {
		r.data[i] = v * o.data[i]
	}
	return r
}

// Dot computes the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("matrix: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes dst += c*src for equal-length vectors.
func Axpy(dst []float64, c float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("matrix: Axpy length mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += c * v
	}
}
