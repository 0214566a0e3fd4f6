package core

import (
	"math"
	"math/bits"
	"sync"

	"toc/internal/matrix"
)

// Algorithm 1: the prefix tree encoding algorithm. It encodes the sparse
// encoded table B into the encoded table D, building the prefix tree C
// along the way. Each tuple is encoded separately (the dictionary is
// shared) so row boundaries are preserved; the compression unit is a whole
// column-index:value pair so column boundaries are preserved (§3.1.3).
//
// The tree is never materialized as nodes with child links. The paper's
// GetIndex(parent, key) is the standard technique it cites from Blelloch —
// a hash map from (parent index, child key) to child index — and the
// encoder keeps that map as two open-addressed tables (internTable):
//
//   - first maps a column-index:value pair to its first-layer node. Phase I
//     sends every non-zero through it once, which both builds I in
//     first-appearance order and rewrites each tuple as a sequence of
//     first-layer node indexes — one uint32 per non-zero. From there on a
//     pair is its index: phase II never looks at a column or a float again.
//   - child maps (parent node, first-layer index of the key) to the child
//     node, packed into one word as parent<<32 | index.
//
// A match always starts at a child of the root, and the root's child with
// key p is by construction first-layer node p: the first element of every
// match is its own index and costs no probe. Only extending a match
// (lines 27-30) and AddNode (line 14) touch the child table, and they are
// the same probe — a miss leaves the new node behind.
//
// Keys are the *bits* of the float64, not its value. Two floats with
// equal bits are the same pair and every other two are different pairs,
// which is the equality the lossless contract needs: it agrees with ==
// everywhere except NaN (never equal to itself under ==, so a map keyed
// on the float could not find the pair it had just stored) and ±0 (equal
// under ==, and neither is ever a key: the sparse encoding drops every
// v == 0 before the encoder sees it).
//
// Pool contract. All encoder state — the tables, the tuple rewrite, D and
// the physical layer's staging arrays — lives in one encoder recycled
// through encoderPool, so steady-state compression allocates only what
// the Batch keeps. Nothing a caller receives aliases the encoder: I's
// two arrays and D's tuple starts are copied out at exact length and D
// is renumbered out of it before Put, and an encoder is owned by one
// goroutine between Get and Put.

// slot is one entry of an internTable. Interned ids are tree-node indexes
// or 1-based dictionary positions, never 0, so id == 0 marks a free slot.
type slot struct {
	key uint64
	aux uint32
	id  uint32
}

// internTable is an open-addressed (linear probing, load <= 1/2),
// power-of-two hash table from a (key, aux) word pair to a non-zero id.
// Like a treeArena it only ever grows: a pooled table is emptied with one
// clear of the size its largest batch needed.
type internTable struct {
	slots []slot
	shift uint // 64 - log2(len(slots)): the hash's top bits index slots
	n     int  // occupied slots
}

func (t *internTable) reset() {
	clear(t.slots)
	t.n = 0
}

// intern returns the id stored under (key, aux); when there is none it
// stores fresh there and reports added.
func (t *internTable) intern(key uint64, aux uint32, fresh uint32) (id uint32, added bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	s := t.probe(key, aux)
	if added = s.id == 0; added {
		*s = slot{key: key, aux: aux, id: fresh}
		t.n++
	}
	return s.id, added
}

// probe returns the slot holding (key, aux), or the free slot where it
// belongs.
func (t *internTable) probe(key uint64, aux uint32) *slot {
	mask := uint64(len(t.slots) - 1)
	for i := hashWords(key, aux) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.id == 0 || (s.key == key && s.aux == aux) {
			return s
		}
	}
}

// grow doubles the table and re-enters every entry.
func (t *internTable) grow() {
	old := t.slots
	t.slots = make([]slot, max(2*len(old), 64))
	t.shift = uint(64 - bits.Len(uint(len(t.slots)-1)))
	for _, s := range old {
		if s.id != 0 {
			*t.probe(s.key, s.aux) = s
		}
	}
}

// hashWords mixes both words into 64 bits whose top bits index the table.
// Float bit patterns of round values differ only in their high bits and
// packed (parent, index) keys mostly in two narrow fields, so the high
// half is folded down before the multiply carries everything up.
func hashWords(key uint64, aux uint32) uint64 {
	x := key ^ uint64(aux)*0x9e3779b97f4a7c15
	x ^= x >> 32
	return x * 0xbf58476d1ce4e5b9
}

// encoder is the pooled working state of one Algorithm 1 run and of the
// physical encoding of its result.
type encoder struct {
	first, child internTable

	pairs  firstLayer // I, in first-appearance order
	ids    []uint32   // first-layer node of every non-zero, tuples concatenated
	tuples []uint32   // tuples[r]: offset of tuple r in ids; one final entry = len(ids)
	d      dTable     // D, flat; Deserialize unpacks an image's codes here too

	// Staging for the physical layer (physical.go): the largest of I's
	// columns, the value dictionary of I's values, one dictionary index
	// per pair, and a resident D's way back to the paper's numbering —
	// every live id's paper number, the bitmap of tuple ends it is
	// counted from, and D in it.
	colTop uint32
	dict   internTable
	vals   []float64
	occ    []uint32
	inv    []uint32
	ends   []uint64
	paper  []uint32
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// begin starts phase I on an empty table B.
func (e *encoder) begin() {
	e.first.reset()
	e.pairs = firstLayer{col: e.pairs.col[:0], val: e.pairs.val[:0]}
	e.ids = e.ids[:0]
	e.tuples = append(e.tuples[:0], 0)
}

// add appends one column-index:value pair to the current tuple, giving it
// a first-layer node if it is new (lines 5-8).
func (e *encoder) add(col uint32, val float64) {
	id, added := e.first.intern(math.Float64bits(val), col, uint32(e.pairs.len())+1)
	if added {
		e.pairs.col = append(e.pairs.col, col)
		e.pairs.val = append(e.pairs.val, val)
	}
	e.ids = append(e.ids, id)
}

// endTuple closes the current tuple.
func (e *encoder) endTuple() { e.tuples = append(e.tuples, uint32(len(e.ids))) }

// addDense runs phase I over a dense mini-batch: the sparse encoding of §3
// (v != 0, so zeros of both signs are dropped) feeds the first layer
// directly, with no sparse table B in between.
func (e *encoder) addDense(m *matrix.Dense) {
	e.begin()
	for i := 0; i < m.Rows(); i++ {
		for j, v := range m.Row(i) {
			if v != 0 {
				e.add(uint32(j), v)
			}
		}
		e.endTuple()
	}
}

// encode runs phase II (lines 9-17) over the tuples phase I rewrote,
// leaving D in e.d: every tuple is cut into longest matches from the
// tree, and every match but a tuple's last adds one node — the match
// extended by the pair that ended it — under the next sequence number.
func (e *encoder) encode() {
	e.child.reset()
	nodes := e.d.Nodes[:0]
	if cap(nodes) < len(e.ids) { // |D| <= the number of non-zeros
		nodes = make([]uint32, 0, len(e.ids))
	}
	starts := e.d.Starts[:0]
	next := uint32(e.pairs.len()) + 1
	for r := 1; r < len(e.tuples); r++ {
		starts = append(starts, uint32(len(nodes)))
		t := e.ids[e.tuples[r-1]:e.tuples[r]]
		for len(t) > 0 {
			n := t[0] // LongestMatchFromTree: the first element always matches
			for t = t[1:]; len(t) > 0; t = t[1:] {
				c, added := e.child.intern(uint64(n)<<32|uint64(t[0]), 0, next)
				if added { // no such child: the match ends, and this is AddNode
					next++
					break
				}
				n = c
			}
			nodes = append(nodes, n)
		}
	}
	e.d = dTable{Nodes: nodes, Starts: append(starts, uint32(len(nodes)))}
}

// PrefixTreeEncode runs Algorithm 1 on the sparse encoded table b,
// returning the column-index:value pairs in the first layer of the prefix
// tree (I) and the encoded table (D). I[k] is the key of tree node k+1:
// together with D it suffices to rebuild the full tree (Algorithm 2).
// It accepts any tuples of pairs, like LZW accepts any string; Compress
// runs the same encoder straight off the dense rows.
func PrefixTreeEncode(b []SparseRow) (I []Pair, D [][]uint32) {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	e.begin()
	for _, t := range b {
		for _, p := range t {
			e.add(p.Col, p.Val)
		}
		e.endTuple()
	}
	e.encode()
	D = make([][]uint32, len(b))
	for i := range D {
		D[i] = exactCopy(e.d.row(i))
	}
	return e.pairs.pairs(), D
}

// exactCopy copies s out of pooled scratch into a slice with cap == len,
// so what a Batch keeps resident carries no size-class or growth slack.
func exactCopy[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}
