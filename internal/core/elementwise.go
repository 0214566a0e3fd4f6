package core

import "toc/internal/matrix"

// Element-wise operations. Sparse-safe ops (zero stays zero) touch only
// the unique values — Algorithm 3 scans I. Sparse-unsafe ops (zero may
// become non-zero) must fully decode first — Algorithm 6.

// Scale returns a new batch representing A.*c (Algorithm 3). Only the
// value dictionary is touched, so the cost is O(distinct values)
// regardless of the matrix size; the encoded table D and, unless two
// values merge, I's words are shared with the receiver, not copied.
func (b *Batch) Scale(c float64) *Batch {
	return b.mapValues(func(v float64) float64 { return v * c })
}

// Square returns a new batch representing A.^2 element-wise (sparse-safe).
func (b *Batch) Square() *Batch {
	return b.mapValues(func(v float64) float64 { return v * v })
}

// mapValues returns the batch with f applied to every value of I, and
// D shared. It maps the dictionary, not the pairs: it allocates the
// Batch and a dictionary. A SparseLogical dictionary is I's values in
// order and stays so. Two entries of a Full dictionary that f maps to
// the same bits must become one entry, as they would have if f had run
// on every pair and the image been value-indexed afterwards: so the
// mapped entries are interned in dictionary order (valueIndex,
// compacting them in place), and when any merge, the words are
// rewritten to name the merged entries. From a dictionary in
// first-appearance order that yields the first-appearance dictionary of
// the mapped values, the batch Compress makes of the mapped matrix.
// The image length is unchanged unless entries merged or the receiver's
// length is that of an image Deserialize read, which need not be the one
// Serialize writes; then it is counted afresh.
func (b *Batch) mapValues(f func(float64) float64) *Batch {
	vals := make([]float64, len(b.i.vals))
	for k, x := range b.i.vals {
		vals[k] = f(x)
	}
	nb := &Batch{cols: b.cols, variant: b.variant, i: b.i, d: b.d, size: b.size}
	nb.i.vals = vals
	if b.variant == Full {
		e := encoderPool.Get().(*encoder)
		defer encoderPool.Put(e)
		e.occ = fit(e.occ, len(vals))
		if merged := e.valueIndex(vals, vals[:0], e.occ, len(vals)); len(merged) < len(vals) {
			nb.i = remapPairs(&b.i, e.occ, merged, b.cols)
		}
	}
	if b.img != nil || len(nb.i.vals) < len(vals) {
		nb.sizeImage()
	}
	return nb
}

// remapPairs returns a first layer over a copy of the dictionary vals
// whose pair k is I's, its index mapped through remap, at the width cols
// and vals fit. It is the one place a batch's words are rewritten, and
// runs only when mapValues merges entries.
//
// A dictionary of |I| entries is held as the image stores it: each
// pair's value in pair order, pair k naming entry k, so that the batch
// Deserialize reads back is this one. Merging down to |I| entries needs
// a receiver with more entries than pairs, one Deserialize read from a
// non-canonical image, whose merged order need not be pair order.
func remapPairs(I *firstLayer, remap []uint32, vals []float64, cols int) firstLayer {
	var out firstLayer
	if narrowFits(cols, len(vals)) {
		out.narrow = make([]uint32, I.len())
	} else {
		out.wide = make([]uint64, I.len())
	}
	if len(vals) == I.len() {
		inPairOrder := make([]float64, len(vals))
		for k := range inPairOrder {
			c, x := I.pair(k)
			inPairOrder[k] = vals[remap[x]]
			out.set(k, c, uint32(k))
		}
		out.vals = inPairOrder
		return out
	}
	out.vals = exactCopy(vals)
	for k := range I.len() {
		c, x := I.pair(k)
		out.set(k, c, remap[x])
	}
	return out
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
