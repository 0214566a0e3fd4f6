package core

import (
	"math/bits"
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
// Resident form. LZW adds a node per emitted code, and inside one
// mini-batch most of them are never matched again — on an imagenet
// 250×180 batch |C'| = 8917 and 3402 nodes are ever referenced, on mnist
// 18894 and 8211. A node nothing references decodes nothing, is read by
// no kernel's D scan and carries an accumulated weight of exactly +0, so
// a Batch does not keep the paper's numbering: newLogical (batch.go)
// renumbers D onto the live nodes once, when the batch is made, and
// every plan build and kernel after that runs on the compact tree.
//
//   - A node is live iff D references it. That is the whole liveness
//     computation: the node created at D position q has parent D[q], so
//     every node's parent is itself an element of D and one mark pass
//     over D closes the set under "parent of".
//   - d.Nodes holds live ids: first-layer nodes 1..|I| keep their numbers
//     (Compress never leaves one unreferenced and Deserialize rejects an
//     image that does), live deep nodes follow from |I|+1 in creation
//     order, dead ones have no number. Order is preserved, so a parent
//     still precedes its children and every kernel folds in the order it
//     would over the full tree.
//   - d.created is a bitmap over D positions: bit q is set iff the node
//     position q created is live (only a non-final position of a tuple
//     creates one). d.live is its population count. With D it is all the
//     build needs, and its replay is also the inverse map back to the
//     paper's numbering (paperNodes), which the image is written in.
//
// build therefore is Algorithm 2 restricted to live nodes,
// O(|I| + |live|) per plan; Algorithm 2 as written — the full tree — is
// the test oracle (oracle_test.go).
//
// Layout. A node is two uint32s — 8 bytes. Every key in C' is one of the
// |I| first-layer pairs (Algorithm 1 only ever appends pairs it has
// already put in the first layer), so a node stores the *index* of its
// key's first-layer node instead of a 16-byte copy of the pair: node i's
// key is I[KeyIdx[i]-1]. Algorithm 2's F array ("first pair of the
// sequence node i represents") shrinks the same way to a uint32
// first-layer index, and is build-time scratch only. The build therefore
// writes 12 bytes per live node, into pooled memory. It has to be that
// cheap: the paper's cost model charges every kernel (here: every
// gradient step) a rebuild on the grounds that C' is small.

// DecodeTree is C' over the live nodes. Index 0 is the root; Parent[0]
// and KeyIdx[0] are 0.
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
// in Figure 3 ("tree node indexes" + "tuple start indexes"). As Algorithm
// 1 emits it Nodes is in the paper's numbering and the last two fields
// are unset; inside a Batch it is in the resident form described above.
type dTable struct {
	Nodes  []uint32
	Starts []uint32

	created []uint64 // bit q: the node D position q created is live
	live    int      // live deep nodes, the population count of created
}

func (d dTable) rows() int { return len(d.Starts) - 1 }

// row returns tuple i's node indexes (aliased).
func (d dTable) row(i int) []uint32 { return d.Nodes[d.Starts[i]:d.Starts[i+1]] }

// paperNodes returns Nodes in the paper's numbering, the one Algorithm 1
// emitted and the image stores, by replaying the creation bitmap: the
// node D position q created was number firstLayer+1+(non-final positions
// before q), and the j-th set bit is live deep node j.
func (d dTable) paperNodes(firstLayer int) []uint32 {
	paper := make([]uint32, 0, d.live)
	next := uint32(firstLayer) + 1
	for r := 0; r < d.rows(); r++ {
		for q := d.Starts[r]; q+1 < d.Starts[r+1]; q++ {
			if d.created[q>>6]>>(q&63)&1 != 0 {
				paper = append(paper, next)
			}
			next++
		}
	}
	out := make([]uint32, len(d.Nodes))
	for k, n := range d.Nodes {
		if int(n) > firstLayer {
			n = paper[int(n)-firstLayer-1]
		}
		out[k] = n
	}
	return out
}

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

// treeSize computes the paper's |C'|: root + first layer + one node per
// non-final tuple element, i.e. 1 + |I| + (|D.Nodes| - rows-with-elements).
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

// build implements Algorithm 2 into the arena for a D in resident form:
// phase I initializes C' (and the first-pair index array F) from I;
// phase II adds the live nodes in creation order by walking the set bits
// of D.created, mimicking how Algorithm 1 built C with the never-matched
// nodes left out. The result is valid until the arena's next build. Only
// newLogical guarantees D's node indexes are in range and the bitmap's
// population is D.live; the data-dependent gathers keep their bounds
// checks regardless.
func (a *treeArena) build(I []Pair, D dTable) *DecodeTree {
	treeBuilds.Add(1)
	size := 1 + len(I) + D.live
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

	// Phase II (lines 8-14): the element at a live creation position q
	// adds a node whose parent is the element's own node, whose first
	// pair is that parent's, and whose key is the first pair of the
	// *next* element. Order matters: F of the new node is stored before
	// its key is read, because the next element may be the node being
	// added (a tuple that repeats its own just-added sequence references
	// itself).
	idx := firstLayer
	nodes := D.Nodes
	for wi, w := range D.created {
		for ; w != 0; w &= w - 1 {
			q := wi<<6 + bits.TrailingZeros64(w)
			p := nodes[q]
			parent[idx] = p
			first[idx] = first[p]
			keyIdx[idx] = first[nodes[q+1]]
			idx++
		}
	}
	return &a.tree
}

// opScratch holds the per-call working memory of one kernel: the H
// accumulator (|C'| scalars for A·v and v·A; for A·M and M·A one
// |C'|×panelWidth slab per worker, whatever p is) and a second float
// arena (M·A's column gather and transposed result panel). Pooled, so
// the kernels allocate nothing in steady state and one plan can serve
// concurrent calls. Nothing in it is ever assumed initialized: a kernel
// writes every element it goes on to read.
type opScratch struct {
	floats []float64
	gather []float64
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
