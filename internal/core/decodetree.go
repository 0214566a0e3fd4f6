package core

import (
	"sync"
	"sync/atomic"
)

// Algorithm 2: build the prefix tree C' used for decoding and for the
// compressed matrix kernels. C' is a simplified variant of the encoding
// tree C: every node knows its key and the index of its parent, but has no
// child links (Table 4). It is rebuilt from I and D by replaying how
// Algorithm 1 grew the tree: scanning D, every element of a tuple except
// the last one caused exactly one AddNode during encoding.
//
// Layout. A node is two uint32s — 8 bytes. Every key in C' is one of the
// |I| first-layer pairs (Algorithm 1 only ever appends pairs it has
// already put in the first layer), so a node stores the *index* of its
// key's first-layer node instead of a 16-byte copy of the pair: node i's
// key is I[KeyIdx[i]-1]. Algorithm 2's F array ("first pair of the
// sequence node i represents") shrinks the same way to a uint32
// first-layer index, and is build-time scratch only. The build therefore
// writes 12 bytes per node, into pooled memory. It has to be that cheap:
// the paper's cost model charges every kernel (here: every gradient step)
// an O(|I|+|D|) rebuild on the grounds that C' is small, but |C'| is of
// the order of |D| — on an imagenet 250×180 batch |I| ≈ 1740, |D| ≈ 7400,
// |C'| ≈ 8900 — so storing pairs (36 bytes per node with F) makes the
// rebuild write nine times the batch's own stored size per step.

// DecodeTree is C'. Index 0 is the root; Parent[0] and KeyIdx[0] are 0.
type DecodeTree struct {
	Parent []uint32 // Parent[i]: index of node i's parent (0 = root)
	KeyIdx []uint32 // KeyIdx[i]: first-layer node whose pair is node i's key, in 1..|I|
}

// Len returns the number of nodes including the root.
func (t *DecodeTree) Len() int { return len(t.Parent) }

// Seq reconstructs the full pair sequence represented by node idx by
// backtracking parent links (the sequence definition of §3.1.1), looking
// each key up in the first layer I the tree was built from. One counting
// walk sizes the result exactly, then a second walk fills it back to
// front — a single allocation, no reverse buffer.
func (t *DecodeTree) Seq(I []Pair, idx uint32) []Pair {
	n := 0
	for i := idx; i != 0; i = t.Parent[i] {
		n++
	}
	seq := make([]Pair, n)
	for i := idx; i != 0; i = t.Parent[i] {
		n--
		seq[n] = I[t.KeyIdx[i]-1]
	}
	return seq
}

// dTable is the flattened encoded table D: Nodes holds every tuple's node
// indexes concatenated, Starts[i] is the offset of tuple i (len rows+1,
// with Starts[rows] == len(Nodes)). This is also the physical layout of D
// in Figure 3 ("tree node indexes" + "tuple start indexes").
type dTable struct {
	Nodes  []uint32
	Starts []uint32
}

func (d dTable) rows() int { return len(d.Starts) - 1 }

// row returns tuple i's node indexes (aliased).
func (d dTable) row(i int) []uint32 { return d.Nodes[d.Starts[i]:d.Starts[i+1]] }

// treeArena is the reusable backing memory of one decode tree: Parent,
// KeyIdx and the build's F scratch, carved from a single uint32 slab that
// only ever grows. Every C' in the process is built by treeArena.build
// into the arena of a KernelPlan, the one owner of tree memory.
type treeArena struct {
	words []uint32
	tree  DecodeTree
}

// treeBuilds counts every C' build in the process, one per NewKernelPlan
// on a logical-variant batch — the white-box counter that proves a shared
// plan amortizes the per-op rebuild (one build per batch-step in the ml
// layer instead of one per kernel call).
var treeBuilds atomic.Uint64

// TreeBuilds returns the cumulative number of decode-tree (C') builds.
func TreeBuilds() uint64 { return treeBuilds.Load() }

// treeSize computes |C'|: root + first layer + one node per non-final
// tuple element, i.e. 1 + |I| + (|D.Nodes| - rows-with-elements).
func treeSize(I []Pair, D dTable) int {
	starts := D.Starts
	empty := 0
	for i := 1; i < len(starts); i++ {
		if starts[i] == starts[i-1] {
			empty++
		}
	}
	return 1 + len(I) + len(D.Nodes) - (D.rows() - empty)
}

// build implements Algorithm 2 into the arena: phase I initializes C' (and
// the first-pair index array F) from I; phase II scans D, adding one node
// per tuple element except the last, mimicking how Algorithm 1 built C.
// The result is valid until the arena's next build. Only the kernels'
// callers guarantee D's node indexes are in range (Compress by
// construction, Deserialize by validateLogical's replay); the
// data-dependent F gathers keep their bounds checks regardless.
func (a *treeArena) build(I []Pair, D dTable) *DecodeTree {
	treeBuilds.Add(1)
	size := treeSize(I, D)
	if cap(a.words) < 3*size {
		a.words = make([]uint32, 3*size)
	}
	parent := a.words[:size:size] // cap == len lets the phase I loop below prove its stores
	keyIdx, first := a.words[size:2*size], a.words[2*size:3*size]
	a.tree = DecodeTree{Parent: parent, KeyIdx: keyIdx}

	// Phase I (lines 4-7): the root, then the first layer — node k's key
	// and first pair are both I[k-1], its parent the root. The arena
	// carries stale data, so every word of the three arrays is written.
	firstLayer := len(I) + 1
	keyIdx, first = keyIdx[:len(parent)], first[:len(parent)]
	for k := range parent[:firstLayer] {
		parent[k] = 0
		keyIdx[k] = uint32(k)
		first[k] = uint32(k)
	}

	// Phase II (lines 8-14), one tuple at a time: element j adds a node
	// whose parent is the element's own node, whose first pair is that
	// parent's, and whose key is the first pair of the *next* element.
	// Order matters: F of the new node is stored before its key is read,
	// because the next element may be the node being added (a tuple that
	// repeats its own just-added sequence references itself).
	idx := firstLayer
	nodes, starts := D.Nodes, D.Starts
	for i := 1; i < len(starts); i++ {
		row := nodes[starts[i-1]:starts[i]]
		for len(row) >= 2 {
			p := row[0]
			parent[idx] = p
			first[idx] = first[p]
			keyIdx[idx] = first[row[1]]
			idx++
			row = row[1:]
		}
	}
	return &a.tree
}

// opScratch holds the per-call working memory of one kernel: the H
// accumulator (|C'| scalars for A·v and v·A; for A·M and M·A one
// |C'|×panelWidth slab per worker, whatever p is), a second float arena
// (M·A's column gather and transposed result panel) and the live-node
// list. Pooled, so the kernels allocate nothing in steady state and one
// plan can serve concurrent calls. Nothing in it is ever assumed
// initialized: a kernel writes every element it goes on to read.
type opScratch struct {
	floats []float64
	gather []float64
	mark   []byte   // liveNodes' reference marks, one per node
	live   []uint32 // liveNodes' result
}

var scratchPool = sync.Pool{New: func() any { return new(opScratch) }}

// rawBuf returns an uninitialized accumulator of length n backed by the
// arena, for kernels that overwrite every element they read.
func (s *opScratch) rawBuf(n int) []float64 {
	if cap(s.floats) < n {
		s.floats = make([]float64, n)
	}
	return s.floats[:n]
}

// liveNodes returns, in ascending order, the live nodes of t: those D
// references directly or through a descendant. They are the only nodes
// whose F (A·M) the D scan reads and whose G (M·A) is not exactly +0;
// LZW adds a node per emitted code, and within one batch most are never
// matched again — 8127 of 18717 live on an mnist 250×196 batch, 3398 of
// 8870 on imagenet 250×180. A live node's parent is live. One pass over
// D marks the referenced nodes; one descending pass over C' (a parent
// precedes its children) pushes marks up and fills the list from the
// back as it goes, branch-free because no predictor learns which node
// is dead: |D| + 2|C'| small touches per call, no plan state. The result
// aliases the scratch and is valid until its next liveNodes call.
func (s *opScratch) liveNodes(t *DecodeTree, D dTable) []uint32 {
	par := t.Parent
	if cap(s.mark) < len(par) {
		s.mark = make([]byte, len(par))
		s.live = make([]uint32, len(par))
	}
	mark, live := s.mark[:len(par)], s.live[:len(par)]
	clear(mark)
	for _, n := range D.Nodes {
		mark[n] = 1
	}
	k := len(live)
	for i := len(par) - 1; i >= 1; i-- {
		mk := mark[i]
		mark[par[i]] |= mk
		live[k-1] = uint32(i)
		k -= int(mk)
	}
	return live[k:]
}

// floatBuf is rawBuf zeroed, for kernels that accumulate into it.
func (s *opScratch) floatBuf(n int) []float64 {
	buf := s.rawBuf(n)
	clear(buf)
	return buf
}

// gatherBuf returns an uninitialized buffer of length n from a second
// arena, disjoint from rawBuf's — matMulTree's side buffers; callers
// write what they go on to read.
func (s *opScratch) gatherBuf(n int) []float64 {
	if cap(s.gather) < n {
		s.gather = make([]float64, n)
	}
	return s.gather[:n]
}
