package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"toc/internal/bitpack"
)

// Physical encoding (§3.2): the logical outputs I and D are serialized to
// bytes. For the Full variant, integer arrays (column indexes of I, value
// indexes, tree-node indexes of D, tuple start indexes) are bit packed and
// the float values of I are value-indexed, exactly as in Figure 3. The
// SparseLogical ablation variant stores the same information raw.
//
// Image layout (little-endian):
//
//	header: "TOCB" | version=1 | variant | rows u32 | cols u32
//	Full:          bitpack(I.cols) | valueindex(I.vals) |
//	               bitpack(D.nodes) | bitpack(D.starts)
//	SparseLogical: u32 |I|, raw (u32 col, f64 val)... |
//	               u32 |D.nodes|, raw u32... | raw u32 starts[rows+1]

const (
	imageMagic   = "TOCB"
	imageVersion = 1
	headerSize   = 4 + 1 + 1 + 4 + 4
)

// packedHeader is a bit-packed array's header: u32 count, u8 width.
const packedHeader = 5

// Serialize returns the physical byte image of the batch. A batch
// Deserialize made returns the image it was read from. Any other batch
// keeps none and writes it here, on every call, from (I, D′): D goes
// back to the paper's numbering through the inverse map, so the image is
// the one Compress would have written for the same (I, D). It is not
// cached — a cache would put the image of every batch Serialize ever
// saw, resident ones included, back in RAM.
func (b *Batch) Serialize() []byte {
	if b.img != nil {
		return b.img
	}
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	return e.image(b, e.paperD(b), b.d.top)
}

// paperD returns b's D in the paper's numbering, in the encoder's staging
// memory.
func (e *encoder) paperD(b *Batch) []uint32 {
	d := &b.d
	e.inv, e.paper = grow(e.inv, 1+b.i.len()+d.live), grow(e.paper, d.len())
	if cap(e.ends) < len(d.created) {
		e.ends = make([]uint64, len(d.created))
	}
	liveToPaper(e.inv, e.ends, d.starts, d.created, b.i.len()+1)
	if d.isWide() {
		paperNodes(e.paper, d.wide, e.inv)
	} else {
		paperNodes(e.paper, d.narrow, e.inv)
	}
	return e.paper
}

// image serializes b in one exactly-sized allocation, with nodes, the
// largest of which is top, as D's codes in the paper's numbering. Every
// section's length follows from counts known up front (fullSize,
// sparseLogicalSize), and every section is written in bulk.
//
// The Full image is Figure 3's physical encoding: I's column indexes bit
// packed, I's values value-indexed (§3.2: the unique values once, in
// first-appearance order, then a bit-packed dictionary index per pair),
// D's node indexes and tuple starts bit packed. The bytes are exactly
// what the map oracle writes with bitpack.Pack and a first-appearance
// dictionary (TestEncoderMatchesMapOracle), and readFull reads them back.
func (e *encoder) image(b *Batch, nodes []uint32, top uint32) []byte {
	switch b.variant {
	case Full:
		e.valueIndex(b.i, b.distinct == b.i.len())
		out := make([]byte, fullSize(b.rows, b.i.len(), e.colTop, len(e.vals), len(nodes), top))
		off := b.putHeader(out)
		off += putPacked(out[off:], b.i.col, e.colTop)
		binary.LittleEndian.PutUint32(out[off:], uint32(len(e.vals)))
		off += 4
		for _, v := range e.vals {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
			off += 8
		}
		off += putPacked(out[off:], e.occ, occTop(len(e.vals)))
		off += putPacked(out[off:], nodes, top)
		putPacked(out[off:], b.d.starts, uint32(len(nodes)))
		return out
	case SparseLogical:
		out := make([]byte, sparseLogicalSize(b.rows, b.i.len(), len(nodes)))
		off := b.putHeader(out)
		binary.LittleEndian.PutUint32(out[off:], uint32(b.i.len()))
		off += 4
		col, val := b.i.arrays()
		for k, v := range val {
			binary.LittleEndian.PutUint32(out[off:], col[k])
			binary.LittleEndian.PutUint64(out[off+4:], math.Float64bits(v))
			off += 12
		}
		binary.LittleEndian.PutUint32(out[off:], uint32(len(nodes)))
		off += 4
		off += putU32s(out[off:], nodes)
		putU32s(out[off:], b.d.starts)
		return out
	}
	out := make([]byte, headerSize)
	b.putHeader(out)
	return out
}

// valueIndex stages what I's physical first layer needs besides its
// column array in the encoder: the largest column, I's distinct values
// in first-appearance order, and each pair's dictionary index. Values
// are interned on their bits, like the encoder's pairs — unless every
// value of I is known to be distinct, as on continuous data, when the
// dictionary is I's values in order and no table is probed.
func (e *encoder) valueIndex(I firstLayer, allDistinct bool) {
	if !allDistinct {
		e.dict.reset(I.len())
	}
	e.occ = grow(e.occ, I.len())
	col, val := I.arrays()
	occ, vals := e.occ, e.vals[:0]
	var colTop uint32
	for j, v := range val {
		id, added := uint32(len(vals))+1, true
		if !allDistinct {
			id, added = e.dict.intern(math.Float64bits(v), 0, id)
		}
		if added {
			vals = append(vals, v)
		}
		occ[j] = id - 1
		colTop = max(colTop, col[j])
	}
	e.vals, e.colTop = vals, colTop
}

// sizeImage fixes b.size, for a batch that keeps no image, to the length
// of the one Serialize writes, from counts alone: the section lengths,
// the largest column index and code, and the number of distinct values,
// which it keeps in b.distinct.
func (e *encoder) sizeImage(b *Batch) {
	switch b.variant {
	case Full:
		e.valueIndex(b.i, false)
		b.distinct = len(e.vals)
		b.size = fullSize(b.rows, b.i.len(), e.colTop, b.distinct, b.d.len(), b.d.top)
	case SparseLogical:
		b.size = sparseLogicalSize(b.rows, b.i.len(), b.d.len())
	default:
		b.size = headerSize
	}
}

// fullSize is the length of a Full image with lenI first-layer pairs of
// distinct values, the largest column index colTop, lenD codes the
// largest of which is top, and rows tuples: the header, I's columns,
// the value dictionary and each pair's index into it, D's codes and the
// tuple starts.
func fullSize(rows, lenI int, colTop uint32, distinct, lenD int, top uint32) int {
	return headerSize + packedSize(lenI, colTop) + 4 + 8*distinct + packedSize(lenI, occTop(distinct)) +
		packedSize(lenD, top) + packedSize(rows+1, uint32(lenD))
}

// occTop is the largest dictionary index of a dictionary of distinct
// values (zero for an empty one, which packs no index).
func occTop(distinct int) uint32 { return uint32(max(distinct, 1) - 1) }

// sparseLogicalSize is the length of a SparseLogical image.
func sparseLogicalSize(rows, lenI, lenD int) int {
	return headerSize + 4 + 12*lenI + 4 + 4*lenD + 4*(rows+1)
}

// packedSize is the length of n integers bit packed, the largest top.
func packedSize(n int, top uint32) int {
	return packedHeader + n*bitpack.BytesPerInt(top)
}

// putPacked writes vals, the largest top, as a bit-packed array at the
// front of dst — u32 count, u8 bytes per integer, then each value in
// that many little-endian bytes, written a width at a time — and returns
// the bytes written.
func putPacked(dst []byte, vals []uint32, top uint32) int {
	width, n := bitpack.BytesPerInt(top), len(vals)
	binary.LittleEndian.PutUint32(dst, uint32(n))
	dst[4] = byte(width)
	body := dst[packedHeader : packedHeader+width*n]
	switch width {
	case 1:
		body = body[:n]
		for k, v := range vals {
			body[k] = byte(v)
		}
	case 2: // four values to a store
		for ; len(vals) >= 4 && len(body) >= 8; vals, body = vals[4:], body[8:] {
			binary.LittleEndian.PutUint64(body, uint64(uint16(vals[0]))|uint64(uint16(vals[1]))<<16|
				uint64(uint16(vals[2]))<<32|uint64(uint16(vals[3]))<<48)
		}
		for ; len(vals) > 0 && len(body) >= 2; vals, body = vals[1:], body[2:] {
			binary.LittleEndian.PutUint16(body, uint16(vals[0]))
		}
	case 3:
		for ; len(vals) > 0 && len(body) >= 3; vals, body = vals[1:], body[3:] {
			v := vals[0]
			body[0], body[1], body[2] = byte(v), byte(v>>8), byte(v>>16)
		}
	default:
		putU32s(body, vals)
	}
	return packedHeader + width*n
}

// grow returns s resized to n, reallocated only when it is too small.
func grow(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// putHeader writes the shared image header at the start of out and
// returns its length.
func (b *Batch) putHeader(out []byte) int {
	copy(out, imageMagic)
	out[4], out[5] = imageVersion, byte(b.variant)
	binary.LittleEndian.PutUint32(out[6:], uint32(b.rows))
	binary.LittleEndian.PutUint32(out[10:], uint32(b.cols))
	return headerSize
}

// putU32s bulk-writes vals little-endian into dst, returning the byte
// count written.
func putU32s(dst []byte, vals []uint32) int {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[i*4:], v)
	}
	return 4 * len(vals)
}

// Deserialize reconstructs a Batch from a physical image produced by
// Serialize, validating structural invariants so corrupt images return an
// error rather than corrupting kernel execution.
//
// A Full image is read in one pass over its sections (readFull), and the
// call allocates only what the batch keeps: the Batch, I's columns with
// the tuple starts, I's values, D′ and the creation bitmap. The batch
// aliases img. On an imagenet batch of the benchmark's shape (|I| 1739,
// |D| 7402) that is 5 allocations and 41 KB (BenchmarkDeserialize,
// TestDeserializeAllocBytes) — or none, when a batch Recycle took back is
// large enough: its memory is filled instead, every array overwritten
// before anything reads it.
// Which memory a batch is read into changes neither its bits nor which
// images are accepted.
func Deserialize(img []byte) (*Batch, error) {
	b, _ := batchPool.Get().(*Batch)
	if b == nil {
		b = new(Batch)
	}
	if err := deserializeInto(b, img); err != nil {
		batchPool.Put(b) // still recycled memory: newLogical leaves b alone on an error
		return nil, err
	}
	return b, nil
}

// deserializeInto reads img into b, reusing b's arrays where they fit.
func deserializeInto(b *Batch, img []byte) error {
	if len(img) < headerSize {
		return fmt.Errorf("core: image too short: %d bytes", len(img))
	}
	if string(img[:4]) != imageMagic {
		return fmt.Errorf("core: bad magic %q", img[:4])
	}
	if img[4] != imageVersion {
		return fmt.Errorf("core: unsupported version %d", img[4])
	}
	v := Variant(img[5])
	if v > SparseLogical {
		return fmt.Errorf("core: unknown variant %d", img[5])
	}
	rows := int(binary.LittleEndian.Uint32(img[6:10]))
	cols := int(binary.LittleEndian.Uint32(img[10:14]))
	// Bound dimensions so corrupt headers cannot trigger enormous
	// allocations in Decode or the kernels.
	const maxDim = 1 << 27
	if rows > maxDim || cols > maxDim {
		return fmt.Errorf("core: implausible dims %dx%d", rows, cols)
	}
	// D's codes are unpacked into the pooled encoder's D, so the batch
	// retains only the D′ newLogical renumbers them into.
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	if v == Full {
		return e.readFull(b, rows, cols, img)
	}
	I, D, err := parseSparseLogical(img[headerSize:], rows, cols, e.d.Nodes, &b.i)
	if err != nil {
		return err
	}
	e.d.Nodes = D.Nodes
	return newLogical(b, rows, cols, v, I, D, img)
}

// readFull reads a Full image into b. Every section header is read by
// value (bitpack.ReadArray) and every length checked before anything is
// allocated; then each section is read once:
//   - the tuple starts and I's columns are unpacked in bulk into the one
//     array the batch keeps them in (carve); newLogical checks the
//     starts there, and decodeFirstLayer the columns;
//   - I's values are decoded by decodeFirstLayer, straight from the
//     image's bytes;
//   - D's codes are unpacked in bulk into the encoder's scratch, where
//     newLogical's replay checks each one and marks the node it
//     references in one pass.
//
// The accepted language is wider than the images Serialize writes: a
// Full image is accepted iff its sections parse, every index is in range
// and (I, D) pass validateLogical. Nothing asks it to be canonical — its
// value dictionary may repeat a value or hold one no pair names, and a
// section may be packed wider than its largest element needs. The batch
// is the same either way: Serialize returns the bytes that were read,
// while a batch of the same (I, D) that keeps no image (Compress's, or
// this one with its image dropped) writes the canonical image, the
// shortest. A pass that refused or rewrote a non-canonical image would
// cost every spilled read and buy nothing a kernel can see.
func (e *encoder) readFull(b *Batch, rows, cols int, img []byte) error {
	colSec, buf, err := bitpack.ReadArray(img[headerSize:])
	if err != nil {
		return fmt.Errorf("core: I columns: %w", err)
	}
	distinct, buf, err := takeU32(buf)
	if err != nil || len(buf) < 8*int(distinct) {
		return fmt.Errorf("core: I values: truncated value dictionary")
	}
	dict, buf := buf[:8*int(distinct)], buf[8*int(distinct):]
	valSec, buf, err := bitpack.ReadArray(buf)
	if err != nil {
		return fmt.Errorf("core: I values: %w", err)
	}
	nodeSec, buf, err := bitpack.ReadArray(buf)
	if err != nil {
		return fmt.Errorf("core: D nodes: %w", err)
	}
	startSec, buf, err := bitpack.ReadArray(buf)
	if err != nil {
		return fmt.Errorf("core: D starts: %w", err)
	}
	if len(buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes", len(buf))
	}
	if colSec.Len() != valSec.Len() {
		return fmt.Errorf("core: I columns (%d) and values (%d) disagree", colSec.Len(), valSec.Len())
	}
	if startSec.Len() != rows+1 {
		return fmt.Errorf("core: starts length %d != rows+1 (%d)", startSec.Len(), rows+1)
	}
	col, starts := carve(b.i.col, colSec.Len(), rows)
	startSec.UnpackRange(starts, 0, len(starts))
	colSec.UnpackRange(col, 0, len(col))
	I := firstLayer{col: col, val: fit(b.i.val, len(col))}
	if err := decodeFirstLayer(I, &valSec, dict, cols); err != nil {
		return err
	}
	e.d.Nodes = grow(e.d.Nodes, nodeSec.Len())
	nodeSec.UnpackRange(e.d.Nodes, 0, len(e.d.Nodes))
	return newLogical(b, rows, cols, Full, I, dTable{Nodes: e.d.Nodes, Starts: starts}, img)
}

// decodeFirstLayer checks I's columns, already unpacked into I.col,
// against cols, and decodes I's values from a Full image: value k is the
// dictionary entry that element k of valIdx names, read from the image's
// dictionary bytes dict. The indexes are unpacked a window at a time
// onto the stack, each checked against the dictionary's length in the
// pass that reads its entry.
func decodeFirstLayer(I firstLayer, valIdx *bitpack.Array, dict []byte, cols int) error {
	if err := checkCols(I.col, cols); err != nil {
		return err
	}
	var win [256]uint32
	for lo := 0; lo < len(I.val); lo += len(win) {
		part := I.val[lo:min(lo+len(win), len(I.val))]
		v := win[:len(part)]
		valIdx.UnpackRange(v, lo, lo+len(part))
		for k, x := range v {
			at := 8 * int(x)
			if at >= len(dict) {
				return fmt.Errorf("core: I[%d] value index %d out of range %d", lo+k, x, len(dict)/8)
			}
			part[k] = math.Float64frombits(binary.LittleEndian.Uint64(dict[at : at+8]))
		}
	}
	return nil
}

// checkCols checks I's column indexes against the matrix's cols.
func checkCols(col []uint32, cols int) error {
	for k, c := range col {
		if c >= uint32(cols) {
			return fmt.Errorf("core: I[%d] column %d out of range %d", k, c, cols)
		}
	}
	return nil
}

// parseSparseLogical unpacks the raw sections of a SparseLogical image
// into (I, D), each column index checked against cols, once every
// section's length is. D.Nodes is unpacked into scratch, grown if it is
// too small; I and D.Starts reuse spare's arrays where they fit.
func parseSparseLogical(buf []byte, rows, cols int, scratch []uint32, spare *firstLayer) (I firstLayer, D dTable, err error) {
	lenI, buf, err := takeU32(buf)
	if err != nil {
		return I, D, fmt.Errorf("core: |I|: %w", err)
	}
	if len(buf) < int(lenI)*12 {
		return I, D, fmt.Errorf("core: truncated I section")
	}
	pairs, buf := buf[:int(lenI)*12], buf[int(lenI)*12:]
	lenN, buf, err := takeU32(buf)
	if err != nil {
		return I, D, fmt.Errorf("core: |D|: %w", err)
	}
	need := int(lenN)*4 + (rows+1)*4
	if len(buf) != need {
		return I, D, fmt.Errorf("core: D section is %d bytes, want %d", len(buf), need)
	}
	col, starts := carve(spare.col, int(lenI), rows)
	I = firstLayer{col: col, val: fit(spare.val, int(lenI))}
	for k := range I.val {
		col[k] = binary.LittleEndian.Uint32(pairs[k*12:])
		I.val[k] = math.Float64frombits(binary.LittleEndian.Uint64(pairs[k*12+4:]))
	}
	if err := checkCols(col, cols); err != nil {
		return I, D, err
	}
	D = dTable{Nodes: grow(scratch, int(lenN)), Starts: starts}
	buf = buf[getU32s(D.Nodes, buf):]
	getU32s(D.Starts, buf)
	return I, D, nil
}

// validateLogical checks the structural invariants of (I, D) as
// Algorithm 1 emits them: starts well-formed, every node index
// referencing only nodes that exist at that point of the Algorithm-2
// replay, and every first-layer pair referenced. The replay also leaves
// in sc.mark, sized to the paper's |C'|, which nodes D references —
// renumber's input. Column indexes are checked where I is read from an
// image (decodeFirstLayer, parseSparseLogical); the encoder's are in
// range by construction.
func validateLogical(rows, lenI int, D dTable, sc *liveScratch) error {
	if len(D.Starts) != rows+1 {
		return fmt.Errorf("core: starts length %d != rows+1 (%d)", len(D.Starts), rows+1)
	}
	prev := uint32(0)
	for k, s := range D.Starts {
		if s < prev {
			return fmt.Errorf("core: starts not monotone at %d", k)
		}
		prev = s
	}
	if D.Starts[0] != 0 || int(D.Starts[rows]) != len(D.Nodes) {
		return fmt.Errorf("core: starts endpoints invalid")
	}
	size := treeSize(lenI, D)
	if cap(sc.mark) < size {
		sc.mark = make([]byte, size)
	}
	mark := sc.mark[:size]
	sc.mark = mark
	clear(mark)
	if q := replay(D.Nodes, D.Starts, lenI, mark); q >= 0 {
		return fmt.Errorf("core: node index %d at D position %d references a node that does not exist yet", D.Nodes[q], q)
	}
	// Algorithm 1 codes the first occurrence of a pair as its first-layer
	// node, so it never leaves one unreferenced. A hand-built image can;
	// such a pair would keep its number in the resident form and be the
	// one node no tuple reaches, so the image is refused.
	for k, m := range mark[1 : lenI+1] {
		if m == 0 {
			return fmt.Errorf("core: first-layer pair %d is not referenced by D", k)
		}
	}
	return nil
}

// replay checks every code of D against the Algorithm-2 replay and marks
// in mark the node it references, in one pass. Each of a tuple's elements
// except the last created exactly one node during encoding, so at element
// j of a tuple nodes 1..limit+j are addressable, limit being |I| plus the
// nodes earlier tuples created (the +j admits references to nodes created
// earlier in the same tuple, including the self-referencing code pattern
// of repeated sequences). A code is range-checked before it is used as an
// index. replay returns the D position of the first code out of range, or
// -1. It is a leaf function of its own and leaves the error to its
// caller: inlined there, its loop reloaded its slices from the stack on
// every code.
//
//go:noinline
func replay(nodes, starts []uint32, lenI int, mark []byte) int {
	limit := lenI
	for r := 1; r < len(starts); r++ {
		lo := int(starts[r-1])
		row := nodes[lo:starts[r]]
		for j, n := range row {
			if uint(n)-1 >= uint(limit+j) { // n == 0 wraps around
				return lo + j
			}
			mark[n] = 1
		}
		if len(row) > 0 {
			limit += len(row) - 1
		}
	}
	return -1
}

// getU32s bulk-decodes len(dst) little-endian u32s from src (which the
// caller has length-checked), returning the byte count consumed. The
// explicit reslice hoists the bounds check out of the loop.
func getU32s(dst []uint32, src []byte) int {
	src = src[:4*len(dst)]
	for k := 0; 4*k < len(src); k++ {
		dst[k] = binary.LittleEndian.Uint32(src[4*k:])
	}
	return 4 * len(dst)
}

func takeU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("truncated uint32")
	}
	return binary.LittleEndian.Uint32(buf), buf[4:], nil
}
