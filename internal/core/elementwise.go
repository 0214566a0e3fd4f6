package core

import "toc/internal/matrix"

// Element-wise operations. Sparse-safe ops (zero stays zero) touch only
// the unique values — Algorithm 3 scans I. Sparse-unsafe ops (zero may
// become non-zero) must fully decode first — Algorithm 6.

// Scale returns a new batch representing A.*c (Algorithm 3). Only the
// unique column-index:value pairs are touched, so the cost is O(|I|)
// regardless of the matrix size; the encoded table D and I's column
// array are shared with the receiver, not copied.
func (b *Batch) Scale(c float64) *Batch {
	return b.mapValues(func(v float64) float64 { return v * c })
}

// Square returns a new batch representing A.^2 element-wise (sparse-safe).
func (b *Batch) Square() *Batch {
	return b.mapValues(func(v float64) float64 { return v * v })
}

// mapValues returns the batch with f applied to every value of I, and
// I's columns and D shared: it allocates the Batch and a value array.
// Its image length is counted afresh: two values f maps to the same bits
// share a dictionary entry, and the receiver's own length may be that of
// an image Deserialize read, which need not be the one Serialize writes.
func (b *Batch) mapValues(f func(float64) float64) *Batch {
	val := make([]float64, b.i.len())
	for k, x := range b.i.val {
		val[k] = f(x)
	}
	nb := &Batch{rows: b.rows, cols: b.cols, variant: b.variant, i: firstLayer{col: b.i.col, val: val}, d: b.d}
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	e.sizeImage(nb)
	return nb
}

// AddScalar computes the sparse-unsafe A.+c (Algorithm 6): the batch is
// fully decoded by backtracking the decode tree, then the dense op runs on
// the reconstruction.
func (b *Batch) AddScalar(c float64) *matrix.Dense {
	return b.Decode().AddScalar(c)
}

// AddDense computes the sparse-unsafe A+M via full decoding.
func (b *Batch) AddDense(m *matrix.Dense) *matrix.Dense {
	return b.Decode().Add(m)
}
