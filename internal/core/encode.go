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
// encoder keeps that map as two open-addressed tables, each shaped for
// its own key:
//
//   - first (an internTable, 16-byte slots {value bits, column, node})
//     maps a column-index:value pair to its first-layer node. Phase I
//     sends every non-zero through it once, which both builds I in
//     first-appearance order and rewrites each tuple as a sequence of
//     first-layer node indexes — one uint32 per non-zero. From there on a
//     pair is its index: phase II never looks at a column or a float again.
//   - child (a childTable, 12-byte slots {parent, key, node}) maps
//     (parent node, first-layer index of the key) to the child node. Both
//     halves of the key are dense node indexes, so its hash is one
//     multiply of parent<<32 | key.
//
// Both are probed inline, first in addTuple's loop over a row's pairs and
// child in encode's match loop: a hit costs no call, and a miss stores
// the new entry in the free slot the probe ended at. Each batch starts
// with both tables emptied and sized from the encoder's previous batch,
// at twice its entry count, so a run of similar batches never grows a
// table mid-batch; a batch with more than twice as many entries grows it
// by doubling.
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
// Cost. A dense batch is read in place (data.Dataset.Batch hands over a
// view of the dataset's rows), and each row is scanned once, without a
// data-dependent branch, for its non-zeros. Past that the encoder's time
// is its probes: one first-table probe per non-zero in phase I, and one
// child-table probe per non-zero but each tuple's first in phase II —
// about 27 k on a 250×180 imagenet batch. A probe checks for a hit first
// and a table's load is checked only when it inserts.
//
// Pool contract. All encoder state — the tables, the tuple rewrite, D and
// the physical layer's staging arrays — lives in one encoder recycled
// through encoderPool, so steady-state compression allocates only what
// the Batch keeps. Nothing a caller receives aliases the encoder: I's
// words and dictionary and D's tuple starts are copied out at exact
// length and D is renumbered out of it before Put, and an encoder is
// owned by one goroutine between Get and Put.

// slot is one entry of an internTable. Interned ids are tree-node indexes
// or 1-based dictionary positions, never 0, so id == 0 marks a free slot.
type slot struct {
	key uint64
	aux uint32
	id  uint32
}

// internTable is an open-addressed (linear probing, load <= 1/2),
// power-of-two hash table from a (key, aux) word pair to a non-zero id:
// the first-layer table, keyed on a pair's value bits and column, and the
// physical layer's value dictionary, keyed on value bits alone.
type internTable struct {
	slots []slot
	shift uint // 64 - log2(len(slots)): the hash's top bits index slots
	n     int  // occupied slots
}

// tableSize is the least power of two, and at least 64, that holds n
// entries at load 1/2: the size a table that grew to fit them has.
func tableSize(n int) int { return 1 << max(6, bits.Len(uint(2*max(n, 1)-1))) }

// resize makes slots an empty power-of-two table of size entries, in
// place when its capacity allows, and returns it with its hash shift.
func resize[S any](slots []S, size int) ([]S, uint) {
	if cap(slots) < size {
		slots = make([]S, size)
	} else {
		slots = slots[:size]
		clear(slots)
	}
	return slots, uint(64 - bits.Len(uint(size-1)))
}

// reset empties the table, sized to hold n entries at load 1/2.
func (t *internTable) reset(n int) {
	t.slots, t.shift = resize(t.slots, tableSize(n))
	t.n = 0
}

// intern returns the id stored under (key, aux); when there is none it
// stores fresh there and reports added.
func (t *internTable) intern(key uint64, aux uint32, fresh uint32) (id uint32, added bool) {
	s := t.probe(key, aux)
	if s.id != 0 {
		return s.id, false
	}
	*s = slot{key: key, aux: aux, id: fresh}
	if t.n++; 2*t.n > len(t.slots) {
		t.grow()
	}
	return fresh, true
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

// grow doubles the table and re-enters every entry: an insert calls it
// once the load passes 1/2.
func (t *internTable) grow() {
	old := t.slots
	t.slots, t.shift = resize([]slot(nil), 2*len(old))
	for _, s := range old {
		if s.id != 0 {
			*t.probe(s.key, s.aux) = s
		}
	}
}

// hashWords mixes both words into 64 bits whose top bits index the table.
// Float bit patterns of round values differ only in their high bits, so
// the high half is folded down before the multiply carries everything up.
func hashWords(key uint64, aux uint32) uint64 {
	x := key ^ uint64(aux)*0x9e3779b97f4a7c15
	x ^= x >> 32
	return x * 0xbf58476d1ce4e5b9
}

// childSlot is one entry of the child table: node id is the child of
// node parent whose key is first-layer node key. Node ids are never 0,
// so id == 0 marks a free slot.
type childSlot struct{ parent, key, id uint32 }

// childTable is phase II's dictionary, from (parent, key) to the child
// node: open-addressed, linear probing, load <= 1/2, power-of-two. Both
// halves of its key are dense node indexes, so one multiply by 2^64/φ
// (Fibonacci hashing) spreads them. encode probes and inserts inline.
type childTable struct {
	slots []childSlot
	shift uint // 64 - log2(len(slots))
	n     int  // occupied slots
}

// childHash is the child table's hash of (parent, key); its top bits
// index the table.
func childHash(parent, key uint32) uint64 {
	return (uint64(parent)<<32 | uint64(key)) * 0x9e3779b97f4a7c15
}

// reset empties the table, sized to hold n entries at load 1/2.
func (t *childTable) reset(n int) {
	t.slots, t.shift = resize(t.slots, tableSize(n))
	t.n = 0
}

// grow doubles the table and re-enters every entry: an insert calls it
// once the load passes 1/2.
func (t *childTable) grow() {
	old := t.slots
	t.slots, t.shift = resize([]childSlot(nil), 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := childHash(s.parent, s.key) >> t.shift
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// encoder is the pooled working state of one Algorithm 1 run and of the
// physical encoding of its result.
type encoder struct {
	first internTable
	child childTable

	col    []uint32  // I's columns, in first-appearance order
	val    []float64 // I's values, likewise
	ids    []uint32  // first-layer node of every non-zero, tuples concatenated
	tuples []uint32  // tuples[r]: offset of tuple r in ids; one final entry = len(ids)
	nz     []Pair    // addDense: one row's non-zeros
	d      dTable    // D, flat

	// Staging for the physical layer (physical.go): the value dictionary
	// of I's values and one dictionary index per pair; Serialize stages a
	// batch's columns in col.
	dict internTable
	vals []float64
	occ  []uint32
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// begin starts phase I on an empty table B.
func (e *encoder) begin() {
	e.first.reset(2 * e.first.n)
	e.col, e.val = e.col[:0], e.val[:0]
	e.ids = e.ids[:0]
	e.tuples = append(e.tuples[:0], 0)
}

// addTuple appends one tuple to B, giving each of its pairs a
// first-layer node if it is new (lines 5-8). It probes the first-layer
// table inline; only an insert that passes load 1/2 calls out, to grow.
func (e *encoder) addTuple(t []Pair) {
	ids, slots, shift := e.ids, e.first.slots, e.first.shift
	for _, p := range t {
		key := math.Float64bits(p.Val)
		mask := uint64(len(slots) - 1)
		for i := hashWords(key, p.Col) >> shift; ; i = (i + 1) & mask {
			s := &slots[i]
			if s.id == 0 { // a new pair: the next first-layer node
				id := uint32(len(e.val)) + 1
				*s = slot{key: key, aux: p.Col, id: id}
				e.col = append(e.col, p.Col)
				e.val = append(e.val, p.Val)
				ids = append(ids, id)
				if e.first.n++; 2*e.first.n > len(slots) {
					e.first.grow()
					slots, shift = e.first.slots, e.first.shift
				}
				break
			}
			if s.key == key && s.aux == p.Col {
				ids = append(ids, s.id)
				break
			}
		}
	}
	e.ids = ids
	e.tuples = append(e.tuples, uint32(len(ids)))
}

// addDense runs phase I over a dense mini-batch: the sparse encoding of §3
// (v != 0, so zeros of both signs are dropped) feeds the first layer
// directly, with no sparse table B in between. Each row is first
// compacted to its non-zeros without a branch on v: every pair is
// written at the next free place, which advances only past a non-zero.
func (e *encoder) addDense(m *matrix.Dense) {
	e.begin()
	if cap(e.nz) < m.Cols() {
		e.nz = make([]Pair, m.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		nz := e.nz[:len(row)]
		k := uint(0)
		for j, v := range row {
			// k <= j always; the min lets the compiler prove nz's index.
			nz[min(k, uint(j))] = Pair{Col: uint32(j), Val: v}
			b := math.Float64bits(v) << 1 // the sign dropped: ±0 are 0
			k += uint((b | -b) >> 63)     // 1 iff b != 0, iff v != 0
		}
		e.addTuple(nz[:k])
	}
}

// encode runs phase II (lines 9-17) over the tuples phase I rewrote,
// leaving D in e.d: every tuple is cut into longest matches from the
// tree, and every match but a tuple's last adds one node — the match
// extended by the pair that ended it — under the next sequence number.
func (e *encoder) encode() {
	e.child.reset(2 * e.child.n)
	nodes := e.d.Nodes[:0]
	if cap(nodes) < len(e.ids) { // |D| <= the number of non-zeros
		nodes = make([]uint32, 0, len(e.ids))
	}
	starts := e.d.Starts[:0]
	next := uint32(len(e.val)) + 1
	slots, shift := e.child.slots, e.child.shift
	for r := 1; r < len(e.tuples); r++ {
		starts = append(starts, uint32(len(nodes)))
		t := e.ids[e.tuples[r-1]:e.tuples[r]]
		for len(t) > 0 {
			n := t[0] // LongestMatchFromTree: the first element always matches
		match:
			for t = t[1:]; len(t) > 0; t = t[1:] {
				k := t[0]
				mask := uint64(len(slots) - 1)
				for i := childHash(n, k) >> shift; ; i = (i + 1) & mask {
					s := &slots[i]
					if s.id == 0 { // no such child: the match ends, and this is AddNode
						*s = childSlot{parent: n, key: k, id: next}
						next++
						if e.child.n++; 2*e.child.n > len(slots) {
							e.child.grow()
							slots, shift = e.child.slots, e.child.shift
						}
						break match
					}
					if s.parent == n && s.key == k {
						n = s.id
						break
					}
				}
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
	return e.prefixTreeEncode(b)
}

// prefixTreeEncode is PrefixTreeEncode on the encoder e.
func (e *encoder) prefixTreeEncode(b []SparseRow) (I []Pair, D [][]uint32) {
	e.begin()
	for _, t := range b {
		e.addTuple(t)
	}
	e.encode()
	D = make([][]uint32, len(b))
	for i := range D {
		D[i] = exactCopy(e.d.row(i))
	}
	I = make([]Pair, len(e.val))
	for k, v := range e.val {
		I[k] = Pair{Col: e.col[k], Val: v}
	}
	return I, D
}

// exactCopy copies s out of pooled scratch into a slice with cap == len,
// so what a Batch keeps resident carries no size-class or growth slack.
func exactCopy[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}
