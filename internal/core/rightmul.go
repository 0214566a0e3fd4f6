package core

import (
	"fmt"

	"toc/internal/matrix"
)

// Right multiplication operations: A·v (Algorithm 4, Theorem 1) and A·M
// (Algorithm 7, Theorem 3). Both run directly on the TOC output: the
// decode tree C' is built once, scanned once forward to evaluate
// F(x) = C'[x].seq · v by dynamic programming over parent links
// (Equation 6), then D is scanned once to sum F over each tuple's codes
// (Equation 5).
//
// The bodies here take an already-built tree; their one caller is
// KernelPlan (plan.go), which builds C' once per batch-step and shares
// it across every kernel call of that step. Batch.MulVec and
// Batch.MulMat are a plan used for a single sequential call — the paper's
// cost model, one rebuild per op. A·v is one sequential body; A·M takes
// a worker count, and rightmul_parallel.go says why handing its panel
// runs to workers cannot change a bit.
// Every body reads a node's key through the first layer, pair
// KeyIdx[i]-1 of I's column and value arrays (decodetree.go); A·v goes
// one step further and multiplies each of the |I| distinct pairs by v
// exactly once.
//
// Both kernels differ from the textbook loop in one way that changes no
// bit: C' here is the batch's resident tree, which holds only the nodes
// D references (decodetree.go) — the D scan reads no other F. A·M
// differs in one more. Panels: the p result columns are independent
// recurrences, so the kernel runs both scans on panelWidth columns at a
// time, and H is a |C'|×panelWidth slab written by one scan and read
// straight back by the other instead of |C'|×p floats cleared, filled
// and re-read per call.
//
// The inner loops are written for the hardware, not the paper's
// pseudocode: D′ is walked through its flat code and tuple-start arrays,
// one generic body for 16- and 32-bit codes, with the shard bounds
// proven up front (boundsHint) so the compiler drops the per-element
// checks, and the per-row reductions are unrolled. Every
// unroll keeps the exact sequential fold order — a single accumulator
// chain for scalar sums, per-column independence for the matrix rows —
// so results stay bitwise identical to the textbook loops, which the
// oracle tests pin at every worker count.

// boundsHint asserts lo <= hi, hi < len(starts) and hi <= limit, giving
// the compiler the facts it needs to drop the starts[i]/starts[i+1] and
// result-index bounds checks inside a [lo,hi) row loop. The callers'
// shard drivers always satisfy it; a violation is a kernel bug. The
// panic formatting lives in its own function so this guard stays under
// the inline budget — only the inlined form feeds the prove pass.
func boundsHint(lo, hi, startsLen, limit int) {
	if lo < 0 || lo > hi || hi >= startsLen || hi > limit {
		panicShard(lo, hi, startsLen, limit)
	}
}

//go:noinline
func panicShard(lo, hi, startsLen, limit int) {
	panic(fmt.Sprintf("core: row shard [%d,%d) out of range (starts %d, limit %d)", lo, hi, startsLen, limit))
}

// MulVec computes A·v on the compressed batch.
func (b *Batch) MulVec(v []float64) []float64 {
	p := b.NewKernelPlan()
	defer p.Release()
	return p.MulVecInto(nil, v, 1)
}

// mulVecTree is A·v over an already-built decode tree, writing into r
// (length rows, fully overwritten).
func (b *Batch) mulVecTree(t *DecodeTree, sc *opScratch, v, r []float64) {
	// Scan C' to compute H[i] = F(i) = C'[i].key·v + H[parent(i)]; parents
	// precede children, so one forward pass suffices and writes every H[i]
	// before anything reads it (only the root needs clearing).
	//
	// Every key of C' is a first-layer pair, so key·v takes only |I|
	// distinct values, and first-layer node k+1 — key I[k], parent the
	// root — has exactly that product for its H. So the |I| multiplies
	// run once, straight into H, and every later node adds two gathered
	// H values: its key's and its parent's, the only two bounds checks
	// left in the loop. (The textbook "+ H[root]" the first layer skips is
	// "+ 0": it could only turn a -0 product into +0, and no result can
	// tell, because every R[i] is a sum that starts from +0.) The explicit
	// conversion rounds the product before anything is added to it — the
	// unfused multiply-then-add on every architecture, whatever the
	// compiler may fuse elsewhere.
	col, val := b.i.arrays()
	par := t.Parent
	kix := t.KeyIdx[:len(par)]
	h := sc.rawBuf(len(par))
	h[0] = 0
	first := len(val) + 1 // the nodes below it are the first layer
	hf := h[1:first]
	for k, x := range val {
		hf[k] = float64(x * v[col[k]])
	}
	pw, kw, hw := par[first:], kix[first:], h[first:]
	for j := range pw {
		hw[j] = h[kw[j]] + h[pw[j]]
	}
	if d := &b.d; d.isWide() {
		mulVecRows(d.wide, d.starts, h, r)
	} else {
		mulVecRows(d.narrow, d.starts, h, r)
	}
}

// mulVecRows scans D: R[i] = Σ_j H[D[i][j]], each output row an
// independent sequential reduction. The walk is flat over the codes and
// starts with a 4-way unrolled single-chain accumulation: the fold order
// is exactly the sequential one, only the loop control is amortized over
// four elements. Advancing by re-slicing row (rather than
// indexing with k) is what lets the compiler drop the row element checks;
// only the data-dependent h gathers keep theirs.
func mulVecRows[N code](nodes []N, starts []uint32, h, r []float64) {
	rows := len(starts) - 1
	boundsHint(0, rows, len(starts), len(r))
	for i := 0; i < rows; i++ {
		row := nodes[starts[i]:starts[i+1]]
		var s float64
		for len(row) >= 4 {
			s += h[row[0]]
			s += h[row[1]]
			s += h[row[2]]
			s += h[row[3]]
			row = row[4:]
		}
		for len(row) >= 1 {
			s += h[row[0]]
			row = row[1:]
		}
		r[i] = s
	}
}

// MulMat computes A·M on the compressed batch, where M is cols × p.
func (b *Batch) MulMat(m *matrix.Dense) *matrix.Dense {
	p := b.NewKernelPlan()
	defer p.Release()
	return p.MulMatInto(nil, m, 1)
}

// mulMatTree is A·M over an already-built decode tree, writing into r
// (rows × p, fully overwritten). workers > 1 cuts the p columns into that
// many runs, each on its own H slab (forEachPanelRun).
func (b *Batch) mulMatTree(t *DecodeTree, sc *opScratch, m *matrix.Dense, r *matrix.Dense, workers int) {
	p := m.Cols()
	workers = panelWorkers(workers, p)
	slab := t.Len() * panelWidth
	h := sc.rawBuf(workers * slab)
	if workers > 1 {
		forEachPanelRun(p, workers, func(w, clo, chi int) {
			b.mulMatPanel(t, h[w*slab:(w+1)*slab], m, r, clo, chi)
		})
	} else {
		b.mulMatPanel(t, h, m, r, 0, p)
	}
}

// mulMatPanel is A·M for result columns [clo,chi), one panel [lo,hi) at
// a time on the slab h (|C'| rows of hi-lo floats, uninitialized). Per
// panel it runs the C' forward scan,
// H[i,j] = key.Val·M[key.Col,j] + H[parent,j] — a node's parent precedes
// it, so every row is written before it is read and only the root's
// needs clearing — and then the D scan, R[i,j] = Σ_n H[n,j] over tuple
// i's codes n.
// Column j of H and of R depends on column j alone, so each column is
// the same sequential recurrence whatever panel and worker it falls in.
// The D scan holds eight columns of a result row in registers while it
// walks the tuple's codes (a cache line of each H row per step; a tuple
// is short enough to re-walk from L1): each column still folds from +0
// in code order, with one load per element instead of a load, a reload
// of R and a store.
func (b *Batch) mulMatPanel(t *DecodeTree, h []float64, m *matrix.Dense, r *matrix.Dense, clo, chi int) {
	col, val := b.i.arrays()
	par, kix := t.Parent, t.KeyIdx[:len(t.Parent)]
	for lo := clo; lo < chi; lo += panelWidth {
		hi := min(lo+panelWidth, chi)
		w := hi - lo
		clear(h[:w])
		for i := 1; i < len(par); i++ {
			k := kix[i] - 1
			kv := val[k]
			hw := h[i*w : i*w+w]
			hp := h[int(par[i])*w : int(par[i])*w+w]
			mr := m.Row(int(col[k]))[lo:hi]
			hp, mr = hp[:len(hw)], mr[:len(hw)]
			for j := range hw {
				hw[j] = kv*mr[j] + hp[j]
			}
		}
		if d := &b.d; d.isWide() {
			mulMatRows(d.wide, d.starts, h, r, lo, hi)
		} else {
			mulMatRows(d.narrow, d.starts, h, r, lo, hi)
		}
	}
}

// mulMatRows is A·M's D scan for the panel [lo,hi) of the result
// columns: R[i,j] = Σ_n H[n,j] over tuple i's codes n, H a |C'|×(hi-lo)
// slab.
func mulMatRows[N code](nodes []N, starts []uint32, h []float64, r *matrix.Dense, lo, hi int) {
	w, rows := hi-lo, len(starts)-1
	boundsHint(0, rows, len(starts), r.Rows())
	for i := 0; i < rows; i++ {
		ri := r.Row(i)[lo:hi]
		row := nodes[starts[i]:starts[i+1]]
		c := 0
		for ; c+8 <= w; c += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for _, n := range row {
				hn := h[int(n)*w+c : int(n)*w+c+8]
				s0 += hn[0]
				s1 += hn[1]
				s2 += hn[2]
				s3 += hn[3]
				s4 += hn[4]
				s5 += hn[5]
				s6 += hn[6]
				s7 += hn[7]
			}
			rc := ri[c : c+8]
			rc[0], rc[1], rc[2], rc[3], rc[4], rc[5], rc[6], rc[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
		for ; c < w; c++ {
			var s float64
			for _, n := range row {
				s += h[int(n)*w+c]
			}
			ri[c] = s
		}
	}
}
