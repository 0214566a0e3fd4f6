package matrix

// Transpose returns a new matrix that is the transpose of d.
func (d *Dense) Transpose() *Dense {
	t := NewDense(d.cols, d.rows)
	d.TransposeInto(t.data)
	return t
}
