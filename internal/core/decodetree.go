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
//   - D′ holds live ids: first-layer nodes 1..|I| keep their numbers
//     (Compress never leaves one unreferenced and Deserialize rejects an
//     image that does), live deep nodes follow from |I|+1 in creation
//     order, dead ones have no number. Order is preserved, so a parent
//     still precedes its children and every kernel folds in the order it
//     would over the full tree.
//   - D′ is 16 bits a code (d.narrow) when the live tree has at most
//     1<<16 nodes, so that every live id is below 65536, and 32 bits
//     (d.wide) otherwise. Every benchmark batch is narrow: the largest
//     live tree, seed 1, is 3516 nodes over the 800 imagenet batches and
//     8359 over the 80 mnist ones. Each scan of
//     D′ — the four kernels' (mulVecRows, vecMulRows, mulMatRows,
//     matMulRows), the build's (addLive), Decode's (decodeRows) and the
//     inverse map's (paperNodes), and translate, which writes it — is one
//     generic body over code, and its one caller picks the instantiation.
//   - d.created is a bitmap over D positions: bit q is set iff the node
//     position q created is live (only a non-final position of a tuple
//     creates one). d.live is its population count. With D′ it is all
//     the build needs, and its replay (liveToPaper) is also the inverse
//     map back to the paper's numbering, which the image is written in.
//   - That is all a resident batch holds besides I and the tuple starts.
//     The paper-numbered D that Algorithm 1 emits, or an image holds,
//     stays in pooled scratch. Deserialize unpacks an image's codes
//     there in one bulk call; replay (physical.go) then checks every code
//     against the Algorithm-2 replay and marks the node it references in
//     one pass, and numberMarked and translate turn the marks into D′. The
//     physical image is not kept: Serialize writes it from (I, D′)
//     through the inverse map on every call (physical.go).
//   - I is two arrays, its columns and its values, 12 bytes a pair where
//     a []Pair spends 16, and the columns share one allocation with the
//     tuple starts. On the benchmark's 250-row batches a resident batch
//     costs 1.21 (imagenet) and 3.19 (mnist) heap bytes per image byte,
//     against 1.42 and 3.90 with I as a []Pair, and 2.7 and 5.6 with the
//     image and a 32-bit D′ besides (TestResidentHeapPerCompressedByte).
//
// build therefore is Algorithm 2 restricted to live nodes,
// O(|I| + |live|) per plan; Algorithm 2 as written — the full tree — is
// the test oracle (oracle_test.go).
//
// Layout. A node is two uint32s — 8 bytes. Every key in C' is one of the
// |I| first-layer pairs (Algorithm 1 only ever appends pairs it has
// already put in the first layer), so a node stores the *index* of its
// key's first-layer node instead of a 12-byte copy of the pair: node i's
// key is pair KeyIdx[i]-1 of I. Algorithm 2's F array ("first pair of the
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
// front — a single allocation, no reverse buffer. It is the paper's
// view, not a kernel's: it takes I as PrefixTreeEncode returns it and
// returns a sequence of pairs, so it keeps []Pair where a Batch splits I
// into two arrays.
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

// dTable is the flattened encoded table D as Algorithm 1 emits it, in the
// paper's numbering: Nodes holds every tuple's node indexes
// concatenated, Starts[i] is the offset of tuple i (len rows+1, with
// Starts[rows] == len(Nodes)). This is also the physical layout of D in
// Figure 3 ("tree node indexes" + "tuple start indexes"). Nodes lives in
// the pooled encoder — Algorithm 1 writes it there and Deserialize
// unpacks an image's codes there — only until it is validated and
// renumbered into a residentD, which keeps Starts.
type dTable struct {
	Nodes  []uint32
	Starts []uint32
}

func (d dTable) rows() int { return len(d.Starts) - 1 }

// row returns tuple i's node indexes (aliased).
func (d dTable) row(i int) []uint32 { return d.Nodes[d.Starts[i]:d.Starts[i+1]] }

// code is the width of a resident D′ entry: a live id.
type code interface{ ~uint16 | ~uint32 }

// residentD is D′, the resident form described above: D renumbered onto
// the live nodes, 16 bits a code when the live tree has at most 1<<16
// nodes (narrow) and 32 otherwise (wide). Exactly one of the two is
// non-nil; the callers of the generic scans pick one with isWide().
type residentD struct {
	narrow  []uint16
	wide    []uint32
	starts  []uint32 // as in dTable
	created []uint64 // bit q: the node D position q created is live
	live    int      // live deep nodes, the population count of created
	top     uint32   // the largest code of D in the paper's numbering
}

// isWide reports whether D′ holds 32-bit codes.
func (d *residentD) isWide() bool { return d.wide != nil }

// len returns |D|, the number of codes.
func (d *residentD) len() int { return len(d.narrow) + len(d.wide) }

// liveToPaper fills inv, of length 1+|I|+live, with the paper's number
// of every live id: first-layer nodes keep theirs, and the j-th set bit
// of the creation bitmap, at D position q, is live deep node j, which was
// paper node firstLayer+q-(tuple ends before q). ends, as long as
// created, is scratch for the bitmap of tuple ends, so each number is a
// population count, and the pass over the set bits has no branch but its
// own.
func liveToPaper(inv []uint32, ends []uint64, starts []uint32, created []uint64, firstLayer int) {
	for k := range inv[:firstLayer] {
		inv[k] = uint32(k)
	}
	ends = ends[:len(created)]
	clear(ends)
	for r := 1; r < len(starts); r++ {
		if lo, hi := starts[r-1], starts[r]; lo < hi {
			ends[(hi-1)>>6] |= 1 << ((hi - 1) & 63)
		}
	}
	idx, base := firstLayer, firstLayer // base: firstLayer less the tuple ends before word wi
	for wi, w := range created {
		e := ends[wi]
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			inv[idx] = uint32(base + wi<<6 + b - bits.OnesCount64(e&(1<<b-1)))
			idx++
		}
		base -= bits.OnesCount64(e)
	}
}

// paperNodes writes D′ back in the paper's numbering — the one Algorithm
// 1 emitted and the image stores — into dst, in one flat pass: code n is
// paper node inv[n].
func paperNodes[N code](dst []uint32, nodes []N, inv []uint32) {
	dst = dst[:len(nodes)]
	for k, n := range nodes {
		dst[k] = inv[n]
	}
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
func treeSize(lenI int, D dTable) int {
	starts := D.Starts
	empty := 0
	for i := 1; i < len(starts); i++ {
		if starts[i] == starts[i-1] {
			empty++
		}
	}
	return 1 + lenI + len(D.Nodes) - (D.rows() - empty)
}

// build implements Algorithm 2 into the arena for a D in resident form
// and a first layer of lenI pairs: phase I initializes C' (and the
// first-pair index array F) from I, which needs only |I|; phase II
// (addLive) adds the live nodes in creation order. The result is valid
// until the arena's next build.
func (a *treeArena) build(lenI int, D *residentD) *DecodeTree {
	treeBuilds.Add(1)
	size := 1 + lenI + D.live
	if cap(a.words) < 3*size {
		a.words = make([]uint32, 3*size)
	}
	parent := a.words[:size:size] // cap == len lets the phase I loop below prove its stores
	keyIdx, first := a.words[size:2*size], a.words[2*size:3*size]
	a.tree = DecodeTree{Parent: parent, KeyIdx: keyIdx}

	// Phase I (lines 4-7): the root, then the first layer — node k's key
	// and first pair are both I[k-1], its parent the root. The arena
	// carries stale data, so every word of the three arrays is written.
	firstLayer := lenI + 1
	keyIdx, first = keyIdx[:len(parent)], first[:len(parent)]
	for k := range parent[:firstLayer] {
		parent[k] = 0
		keyIdx[k] = uint32(k)
		first[k] = uint32(k)
	}
	if D.isWide() {
		addLive(parent, keyIdx, first, D.wide, D.created, firstLayer)
	} else {
		addLive(parent, keyIdx, first, D.narrow, D.created, firstLayer)
	}
	return &a.tree
}

// addLive is phase II (lines 8-14), walking the set bits of the creation
// bitmap from node idx on: the element at a live creation position q
// adds a node whose parent is the element's own node, whose first pair
// is that parent's, and whose key is the first pair of the *next*
// element. Order matters: F of the new node is stored before its key is
// read, because the next element may be the node being added (a tuple
// that repeats its own just-added sequence references itself). Only
// newLogical guarantees D's codes are in range and the bitmap's
// population is the live count; the data-dependent gathers keep their
// bounds checks regardless.
func addLive[N code](parent, keyIdx, first []uint32, nodes []N, created []uint64, idx int) {
	keyIdx, first = keyIdx[:len(parent)], first[:len(parent)] // one proof for all three stores
	for wi, w := range created {
		for ; w != 0; w &= w - 1 {
			q := wi<<6 + bits.TrailingZeros64(w)
			p := nodes[q]
			parent[idx] = uint32(p)
			first[idx] = first[p]
			keyIdx[idx] = first[nodes[q+1]]
			idx++
		}
	}
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
