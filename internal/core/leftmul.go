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
// walk D′ through its flat code and tuple-start arrays with the bounds
// proven up front (boundsHint in rightmul.go), mirroring the right-mul
// loop shape.
//
// Unlike the right multiplications, where every output row depends on
// one tuple of D only, the D scan here accumulates into shared per-node
// state H[x] = G(x). Sharding D by rows would give each worker a partial
// H whose per-node sums fold in a different order than the sequential
// scan, so the merged floats could drift in the last bit — and the
// engine's "worker count never changes the trajectory" guarantee would
// be lost. So v·A is one sequential body, and matMulTree splits the p
// dimension (rows of M) instead: the sequential kernel already works
// through it a panel at a time, each panel a complete M·A for its rows
// of M on a private H slab, so a worker is simply handed a run of the
// panels and a slab of its own (forEachPanelRun in rightmul_parallel.go).
// One body serves every worker count, no barrier separates a run's two
// scans, and every reduction keeps the sequential order
// (TestLeftMulParallel*).
//
// Both kernels run on the batch's resident tree, which holds only the
// live nodes of C' (decodetree.go: the nodes D references); M·A works
// through the p dimension one panelWidth-wide panel at a time, like A·M
// (rightmul.go). A dead node's G is exactly +0 — D never adds to it and
// no child pushes into it — so the textbook loop adds key.Val·(+0) = ±0
// to an accumulator that starts at +0 and can never become -0: on finite
// data leaving the node out changes no bit, signed zeros included. This
// is the one place v·A and M·A deviate from Algorithms 5 and 8 as
// written: for a dead node whose key value is ±Inf or NaN the textbook
// product is Inf·0 = NaN, poisoning a result column the dense kernel
// leaves finite, and these kernels do not produce it. (A live node whose
// G is exactly zero still yields that NaN, as the algorithms do.) The
// right multiplications never read a dead node's F, so all four kernels
// agree with matrix.Dense on which elements are NaN or infinite
// (TestMatrixKernelsNonFiniteMatchDense).

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
	if d := &b.d; d.isWide() {
		vecMulRows(d.wide, d.starts, v, h)
	} else {
		vecMulRows(d.narrow, d.starts, v, h)
	}
	// Scan C' backwards: children precede parents, so pushing H[i] onto
	// H[parent] visits every implicit sequence element exactly once.
	// keyIdx/parent/h share one proven length; the data-dependent key
	// fetch, r[col] and h[parent] indexes keep their checks.
	col, val := b.i.arrays()
	par, kix := t.Parent, t.KeyIdx[:len(t.Parent)]
	h = h[:len(par)]
	for i := len(par) - 1; i > len(val); i-- {
		k := kix[i] - 1
		r[col[k]] += val[k] * h[i]
		h[par[i]] += h[i]
	}
	// First layer: node k+1's key is I[k] itself and its parent the root,
	// whose accumulated weight nothing reads — so the keys stream instead
	// of being gathered, and the push (|I| read-modify-writes chained
	// through H[0]) is dropped. Every r[col] still folds in descending
	// node order.
	hf := h[1 : len(val)+1]
	for k := len(val) - 1; k >= 0; k-- {
		r[col[k]] += val[k] * hf[k]
	}
}

// vecMulRows scans D to compute H[x] = G(x) = Σ_{D[i,j]=x} v[i]. The walk
// is flat over the codes and starts, 4-way unrolled; the unrolled
// scatters execute in program order, so a node repeated within one tuple
// still accumulates in the sequential order.
func vecMulRows[N code](nodes []N, starts []uint32, v, h []float64) {
	rows := len(starts) - 1
	boundsHint(0, rows, len(starts), len(v))
	for i := 0; i < rows; i++ {
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

// MatMul computes M·A on the compressed batch, where M is p × rows.
func (b *Batch) MatMul(m *matrix.Dense) *matrix.Dense {
	p := b.NewKernelPlan()
	defer p.Release()
	return p.MatMulInto(nil, m, 1)
}

// matMulTree is M·A over an already-built decode tree, writing into r
// (p × cols, fully overwritten). workers > 1 cuts the p dimension (rows
// of M and of the result) into that many runs, each on its own H slab
// and its own side buffer (forEachPanelRun), with no barrier between a
// run's two scans.
func (b *Batch) matMulTree(t *DecodeTree, sc *opScratch, m *matrix.Dense, r *matrix.Dense, workers int) {
	p := m.Rows()
	workers = panelWorkers(workers, p)
	slab := t.Len() * panelWidth
	h := sc.rawBuf(workers * slab)
	side := (1 + b.cols) * panelWidth // a run's column gather, then its transposed result panel
	g := sc.gatherBuf(workers * side)
	if workers > 1 {
		forEachPanelRun(p, workers, func(w, klo, khi int) {
			b.matMulPanel(t, h[w*slab:(w+1)*slab], g[w*side:(w+1)*side], m, r, klo, khi)
		})
	} else {
		b.matMulPanel(t, h, g, m, r, 0, p)
	}
}

// matMulPanel is M·A for result rows [klo,khi), one panel [lo,hi) at a
// time on the slab h (|C'| rows of hi-lo floats, uninitialized) and the
// side buffer g: panelWidth floats of column gather, then the panel of r
// transposed. A panel reads rows [lo,hi) of M, writes rows [lo,hi) of r
// and touches nothing another panel does, and every per-element
// reduction runs in the one order whatever the split.
func (b *Batch) matMulPanel(t *DecodeTree, h, g []float64, m *matrix.Dense, r *matrix.Dense, klo, khi int) {
	mcols, rcols := m.Cols(), r.Cols()
	mc, rt := g[:panelWidth], g[panelWidth:]
	col, val := b.i.arrays()
	par, kix := t.Parent, t.KeyIdx[:len(t.Parent)]
	for lo := klo; lo < khi; lo += panelWidth {
		w := min(lo+panelWidth, khi) - lo
		md := m.Data()[lo*mcols:]
		mc := mc[:w]
		// The root's row is never read or accumulated into.
		clear(h[w : len(par)*w])
		// Scan D to compute H[x,:] = G(x) = Σ_{D[i,j]=x} M[:,i]. H is
		// stored node-major ("transposed" in the paper's wording) so D is
		// scanned once with good locality. Column i of M is gathered into
		// a contiguous buffer once per tuple: the strided column walk runs
		// once instead of once per code, and every accumulation reads
		// sequential memory. The gather changes no addend and no order,
		// only the load addresses. The scan is the one part of the panel
		// that reads D, so it alone is generic over the code width; with
		// the whole panel generic, ram_nn_sync's core.matmul_ns_per_nnz
		// read 15-30% higher, its inner loops unchanged.
		if d := &b.d; d.isWide() {
			matMulRows(d.wide, d.starts, h, mc, md, mcols)
		} else {
			matMulRows(d.narrow, d.starts, h, mc, md, mcols)
		}
		// Scan C' backwards, pushing accumulated weights to parents. Result element (lo+j, col) accumulates in rt[col][j],
		// the panel of r transposed, so a node's w contributions land in
		// one contiguous row instead of w cache lines a row of r apart; rt
		// starts at +0 like r and takes the same addends in the same
		// order, so copying it out writes the bits accumulating in place
		// would have.
		clear(rt[:rcols*w])
		for i := len(par) - 1; i > len(val); i-- {
			k := kix[i] - 1
			kv := val[k]
			hi := h[i*w : i*w+w]
			hp := h[int(par[i])*w : int(par[i])*w+w]
			rc := rt[int(col[k])*w : int(col[k])*w+w]
			hp, rc = hp[:len(hi)], rc[:len(hi)]
			for j, v := range hi {
				rc[j] += kv * v
				hp[j] += v
			}
		}
		// First layer: node k+1's key is I[k] itself and its parent the
		// root, whose accumulated weight nothing reads, so the push is
		// dropped (and the root's row of H never touched).
		for i := len(val); i >= 1; i-- {
			kv := val[i-1]
			hi := h[i*w : i*w+w]
			rc := rt[int(col[i-1])*w : int(col[i-1])*w+w]
			rc = rc[:len(hi)]
			for j, v := range hi {
				rc[j] += kv * v
			}
		}
		for j := 0; j < w; j++ {
			rj := r.Row(lo + j)
			for c := range rj {
				rj[c] = rt[c*w+j]
			}
		}
	}
}

// matMulRows is M·A's D scan for one panel of len(mc) rows of M, md
// starting at the panel's first: it gathers column i of the panel into
// mc and adds it to H[n,:] for every code n of tuple i.
func matMulRows[N code](nodes []N, starts []uint32, h, mc, md []float64, mcols int) {
	w, rows := len(mc), len(starts)-1
	boundsHint(0, rows, len(starts), rows)
	for i := 0; i < rows; i++ {
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
			hn := h[int(n)*w : int(n)*w+w]
			hn = hn[:len(mc)]
			for j, x := range mc {
				hn[j] += x
			}
		}
	}
}
