package core

import "toc/internal/matrix"

// Left multiplication operations: v·A (Algorithm 5, Theorem 2) and M·A
// (Algorithm 8, Theorem 4). D is scanned first to accumulate
// G(x) = Σ_{D[i,j]=x} v[i] (Equation 7), then C' is scanned backwards:
// each node contributes key·G to the result and pushes its accumulated
// weight up to its parent, evaluating Equation 8 without ever
// materializing node sequences.
//
// Like the right multiplications, the bodies take an already-built tree
// and are called by KernelPlan (plan.go) alone; Batch.VecMul and
// Batch.MatMul are a plan used for a single sequential call. The bodies
// accumulate into caller-zeroed destinations and walk D through the flat
// Nodes/Starts arrays with the bounds proven up front (boundsHint in
// rightmul.go), mirroring the right-mul loop shape. leftmul_parallel.go
// holds the sharded v·A and says why sharding either kernel cannot
// change a bit.

// VecMul computes v·A on the compressed batch.
func (b *Batch) VecMul(v []float64) []float64 {
	p := b.NewKernelPlan()
	defer p.Release()
	return p.VecMulInto(nil, v, 1)
}

// vecMulTree is v·A over an already-built decode tree, accumulating into
// r (length cols, caller-zeroed).
func (b *Batch) vecMulTree(t *DecodeTree, sc *opScratch, v, r []float64) {
	h := sc.floatBuf(t.Len())
	b.vecMulRows(v, h)
	// Scan C' backwards: children precede parents, so pushing H[i] onto
	// H[parent] visits every implicit sequence element exactly once.
	// keyIdx/parent/h share one proven length; the data-dependent key
	// fetch, r[col] and h[parent] indexes keep their checks.
	I, par := b.i, t.Parent
	kix := t.KeyIdx[:len(par)]
	h = h[:len(par)]
	for i := len(par) - 1; i > len(I); i-- {
		k := I[kix[i]-1]
		r[k.Col] += k.Val * h[i]
		h[par[i]] += h[i]
	}
	// First layer: node k+1's key is I[k] itself and its parent the root,
	// whose accumulated weight nothing reads — so the keys stream instead
	// of being gathered, and the push (|I| read-modify-writes chained
	// through H[0]) is dropped. Every r[col] still folds in descending
	// node order.
	hf := h[1 : len(I)+1]
	for k := len(I) - 1; k >= 0; k-- {
		r[I[k].Col] += I[k].Val * hf[k]
	}
}

// vecMulRows scans D to compute H[x] = G(x) = Σ_{D[i,j]=x} v[i]. The walk
// is flat over Nodes/Starts, 4-way unrolled; the unrolled scatters execute
// in program order, so a node repeated within one tuple still accumulates
// in the sequential order.
func (b *Batch) vecMulRows(v, h []float64) {
	nodes, starts := b.d.Nodes, b.d.Starts
	boundsHint(0, b.rows, len(starts), len(v))
	for i := 0; i < b.rows; i++ {
		vi := v[i]
		row := nodes[starts[i]:starts[i+1]]
		for len(row) >= 4 {
			h[row[0]] += vi
			h[row[1]] += vi
			h[row[2]] += vi
			h[row[3]] += vi
			row = row[4:]
		}
		for len(row) >= 1 {
			h[row[0]] += vi
			row = row[1:]
		}
	}
}

// vecMulSparseSeq is the SparseOnly v·A, accumulating into caller-zeroed r.
func (b *Batch) vecMulSparseSeq(v, r []float64) {
	starts, cols, vals := b.srStarts, b.srCols, b.srVals
	boundsHint(0, b.rows, len(starts), len(v))
	for i := 0; i < b.rows; i++ {
		vi := v[i]
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
}

// MatMul computes M·A on the compressed batch, where M is p × rows.
func (b *Batch) MatMul(m *matrix.Dense) *matrix.Dense {
	p := b.NewKernelPlan()
	defer p.Release()
	return p.MatMulInto(nil, m, 1)
}

// matMulTree is M·A over an already-built decode tree, accumulating into
// r (p × cols, caller-zeroed); callers guarantee workers <= p. With
// workers > 1 the p dimension (rows of M and of the result) is sharded:
// worker w computes result rows [klo,khi) end to end with its own slice
// of the column-gather buffer, and no barrier separates its two scans.
func (b *Batch) matMulTree(t *DecodeTree, sc *opScratch, m *matrix.Dense, r *matrix.Dense, workers int) {
	p := m.Rows()
	h := sc.floatBuf(t.Len() * p)
	mc := sc.gatherBuf(p)
	if workers > 1 {
		forEachSpan(p, workers, func(klo, khi int) { b.matMulTreeRange(t, h, mc[klo:khi], m, r, klo, khi) })
	} else {
		b.matMulTreeRange(t, h, mc, m, r, 0, p)
	}
}

// matMulTreeRange is M·A for result rows [klo,khi): it touches only
// columns [klo,khi) of H (node-major, zeroed) and rows [klo,khi) of r,
// so its backward scan depends on nothing another range writes, and
// every per-element reduction runs in the one order whatever the split.
// mc is the range's gather buffer, length khi-klo. M, H and r are
// re-based at the range's first row up front, so the loops below are the
// whole-matrix loops over a narrower window and carry no range offsets.
func (b *Batch) matMulTreeRange(t *DecodeTree, h, mc []float64, m *matrix.Dense, r *matrix.Dense, klo, khi int) {
	p := m.Rows()
	mcols, rcols := m.Cols(), r.Cols()
	md, rd := m.Data()[klo*mcols:], r.Data()[klo*rcols:]
	h = h[klo:]
	w := khi - klo
	// Scan D to compute H[x,:] = G(x) = Σ_{D[i,j]=x} M[:,i]. H is stored
	// node-major ("transposed" in the paper's wording) so D is scanned
	// once with good locality. Column i of M is gathered into a contiguous
	// buffer once per tuple: the strided column walk runs once instead of
	// once per code, and every accumulation reads sequential memory. The
	// gather changes no addend and no order, only the load addresses.
	nodes, starts := b.d.Nodes, b.d.Starts
	boundsHint(0, b.rows, len(starts), b.rows)
	for i := 0; i < b.rows; i++ {
		row := nodes[starts[i]:starts[i+1]]
		if len(row) == 0 {
			continue
		}
		off := i
		for k := range mc {
			mc[k] = md[off]
			off += mcols
		}
		for _, n := range row {
			hn := h[int(n)*p : int(n)*p+len(mc)]
			mw := mc
			for len(hn) >= 4 && len(mw) >= 4 {
				hn[0] += mw[0]
				hn[1] += mw[1]
				hn[2] += mw[2]
				hn[3] += mw[3]
				hn, mw = hn[4:], mw[4:]
			}
			for len(hn) >= 1 && len(mw) >= 1 {
				hn[0] += mw[0]
				hn, mw = hn[1:], mw[1:]
			}
		}
	}
	// Scan C' backwards, pushing accumulated weights to parents. The
	// result element (k, col) strides by r's row width; walking the offset
	// replaces the per-element index multiply.
	I, par := b.i, t.Parent
	kix := t.KeyIdx[:len(par)]
	for i := len(par) - 1; i >= 1; i-- {
		k := I[kix[i]-1]
		hi := h[i*p : i*p+w]
		hp := h[int(par[i])*p : int(par[i])*p+w]
		hp = hp[:len(hi)]
		kv := k.Val
		off := int(k.Col)
		for j := 0; j < len(hi); j++ {
			rd[off] += kv * hi[j]
			hp[j] += hi[j]
			off += rcols
		}
	}
}

// matMulSparseRange is the SparseOnly M·A for result rows [klo,khi). The
// result row is the outer loop: for a fixed output row the (i,k) nonzero
// scan order is unchanged, so every result element folds in the exact
// pre-restructure order, while M's row and the result row become
// contiguous slices instead of strided column walks.
func (b *Batch) matMulSparseRange(m *matrix.Dense, r *matrix.Dense, klo, khi int) {
	starts, cols, vals := b.srStarts, b.srCols, b.srVals
	boundsHint(0, b.rows, len(starts), b.rows)
	for row := klo; row < khi; row++ {
		mrow := m.Row(row)
		rrow := r.Row(row)
		for i := 0; i < b.rows; i++ {
			mi := mrow[i]
			cs := cols[starts[i]:starts[i+1]]
			vs := vals[starts[i]:starts[i+1]]
			vs = vs[:len(cs)]
			for k, c := range cs {
				rrow[c] += mi * vs[k]
			}
		}
	}
}
