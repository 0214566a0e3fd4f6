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
	e.inv, e.paper = grow(e.inv, 1+len(b.i)+d.live), grow(e.paper, d.len())
	if cap(e.ends) < len(d.created) {
		e.ends = make([]uint64, len(d.created))
	}
	liveToPaper(e.inv, e.ends, d.starts, d.created, len(b.i)+1)
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
// what bitpack.Pack and bitpack.BuildValueIndex would append
// (TestEncoderMatchesMapOracle), and bitpack.ReadArray and
// ReadValueIndex read them back.
func (e *encoder) image(b *Batch, nodes []uint32, top uint32) []byte {
	switch b.variant {
	case Full:
		e.valueIndex(b.i, b.distinct == len(b.i))
		out := make([]byte, fullSize(b.rows, len(b.i), e.colTop, len(e.vals), len(nodes), top))
		off := b.putHeader(out)
		off += putPacked(out[off:], e.cols, e.colTop)
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
		out := make([]byte, sparseLogicalSize(b.rows, len(b.i), len(nodes)))
		off := b.putHeader(out)
		binary.LittleEndian.PutUint32(out[off:], uint32(len(b.i)))
		off += 4
		for _, p := range b.i {
			binary.LittleEndian.PutUint32(out[off:], p.Col)
			binary.LittleEndian.PutUint64(out[off+4:], math.Float64bits(p.Val))
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

// valueIndex stages I's physical first layer in the encoder: its column
// indexes and the largest of them, its distinct values in
// first-appearance order, and each pair's dictionary index. Values are
// interned on their bits, like the encoder's pairs — unless every value
// of I is known to be distinct, as on continuous data, when the
// dictionary is I's values in order and no table is probed.
func (e *encoder) valueIndex(I []Pair, allDistinct bool) {
	if !allDistinct {
		e.dict.reset()
	}
	e.cols, e.occ = grow(e.cols, len(I)), grow(e.occ, len(I))
	cols, occ, vals := e.cols, e.occ, e.vals[:0]
	var colTop uint32
	for j, p := range I {
		id, added := uint32(len(vals))+1, true
		if !allDistinct {
			id, added = e.dict.intern(math.Float64bits(p.Val), 0, id)
		}
		if added {
			vals = append(vals, p.Val)
		}
		cols[j], occ[j] = p.Col, id-1
		colTop = max(colTop, p.Col)
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
		b.size = fullSize(b.rows, len(b.i), e.colTop, b.distinct, b.d.len(), b.d.top)
	case SparseLogical:
		b.size = sparseLogicalSize(b.rows, len(b.i), b.d.len())
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
func Deserialize(img []byte) (*Batch, error) {
	if len(img) < headerSize {
		return nil, fmt.Errorf("core: image too short: %d bytes", len(img))
	}
	if string(img[:4]) != imageMagic {
		return nil, fmt.Errorf("core: bad magic %q", img[:4])
	}
	if img[4] != imageVersion {
		return nil, fmt.Errorf("core: unsupported version %d", img[4])
	}
	v := Variant(img[5])
	if v > SparseLogical {
		return nil, fmt.Errorf("core: unknown variant %d", img[5])
	}
	rows := int(binary.LittleEndian.Uint32(img[6:10]))
	cols := int(binary.LittleEndian.Uint32(img[10:14]))
	// Bound dimensions so corrupt headers cannot trigger enormous
	// allocations in Decode or the kernels.
	const maxDim = 1 << 27
	if rows > maxDim || cols > maxDim {
		return nil, fmt.Errorf("core: implausible dims %dx%d", rows, cols)
	}
	// D's codes are unpacked into the pooled encoder's D, so the batch
	// retains only the D′ newLogical renumbers them into.
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	buf := img[headerSize:]
	var I []Pair
	var D dTable
	var err error
	if v == Full {
		I, D, err = parseFull(buf, e.d.Nodes)
	} else {
		I, D, err = parseSparseLogical(buf, rows, e.d.Nodes)
	}
	if err != nil {
		return nil, err
	}
	e.d.Nodes = D.Nodes
	return newLogical(rows, cols, v, I, D, img)
}

// parseFull unpacks the sections of a Full image into (I, D), range
// checked by bitpack but not yet validated against each other. D.Nodes
// is unpacked into scratch, grown if it is too small.
func parseFull(buf []byte, scratch []uint32) (I []Pair, D dTable, err error) {
	colsArr, buf, err := bitpack.ReadArray(buf)
	if err != nil {
		return nil, D, fmt.Errorf("core: I columns: %w", err)
	}
	vi, buf, err := bitpack.ReadValueIndex(buf)
	if err != nil {
		return nil, D, fmt.Errorf("core: I values: %w", err)
	}
	occ, dict := vi.Indexes(), vi.Values()
	if colsArr.Len() != len(occ) {
		return nil, D, fmt.Errorf("core: I columns (%d) and values (%d) disagree", colsArr.Len(), len(occ))
	}
	// Decode straight into I: the values through the dictionary (whose
	// occurrence indexes ReadValueIndex has range-checked), the column
	// indexes with the bulk word-at-a-time unpack through a small stack
	// window — no |I|-sized temporaries.
	I = make([]Pair, len(occ))
	for k, o := range occ {
		I[k].Val = dict[o]
	}
	var win [256]uint32
	for lo := 0; lo < len(I); lo += len(win) {
		part := I[lo:min(lo+len(win), len(I))]
		colsArr.UnpackRange(win[:len(part)], lo, lo+len(part))
		for k := range part {
			part[k].Col = win[k]
		}
	}
	nodesArr, buf, err := bitpack.ReadArray(buf)
	if err != nil {
		return nil, D, fmt.Errorf("core: D nodes: %w", err)
	}
	startsArr, buf, err := bitpack.ReadArray(buf)
	if err != nil {
		return nil, D, fmt.Errorf("core: D starts: %w", err)
	}
	if len(buf) != 0 {
		return nil, D, fmt.Errorf("core: %d trailing bytes", len(buf))
	}
	nodes := grow(scratch, nodesArr.Len())
	nodesArr.UnpackRange(nodes, 0, len(nodes))
	return I, dTable{Nodes: nodes, Starts: startsArr.Unpack()}, nil
}

// parseSparseLogical is parseFull for the raw SparseLogical sections.
func parseSparseLogical(buf []byte, rows int, scratch []uint32) (I []Pair, D dTable, err error) {
	lenI, buf, err := takeU32(buf)
	if err != nil {
		return nil, D, fmt.Errorf("core: |I|: %w", err)
	}
	if len(buf) < int(lenI)*12 {
		return nil, D, fmt.Errorf("core: truncated I section")
	}
	I = make([]Pair, lenI)
	for k := range I {
		I[k] = Pair{
			Col: binary.LittleEndian.Uint32(buf[k*12:]),
			Val: math.Float64frombits(binary.LittleEndian.Uint64(buf[k*12+4:])),
		}
	}
	buf = buf[lenI*12:]
	lenN, buf, err := takeU32(buf)
	if err != nil {
		return nil, D, fmt.Errorf("core: |D|: %w", err)
	}
	need := int(lenN)*4 + (rows+1)*4
	if len(buf) != need {
		return nil, D, fmt.Errorf("core: D section is %d bytes, want %d", len(buf), need)
	}
	D = dTable{Nodes: grow(scratch, int(lenN)), Starts: make([]uint32, rows+1)}
	buf = buf[getU32s(D.Nodes, buf):]
	getU32s(D.Starts, buf)
	return I, D, nil
}

// validateLogical checks the structural invariants of (I, D) as
// Algorithm 1 emits them: column indexes in range, starts well-formed,
// every node index referencing only nodes that exist at that point of
// the Algorithm-2 replay, and every first-layer pair referenced. The
// replay also leaves in sc.mark, sized to the paper's |C'|, which nodes D
// references — renumber's input; a node index is range-checked before it
// is used as an index.
func validateLogical(rows, cols int, I []Pair, D dTable, sc *liveScratch) error {
	for k, p := range I {
		if int(p.Col) >= cols {
			return fmt.Errorf("core: I[%d] column %d out of range %d", k, p.Col, cols)
		}
	}
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
	// Replay node creation: each of a tuple's elements except the last
	// created exactly one node during encoding, so at element j of a tuple,
	// nodes 1..len(I)+created+j are addressable (the +j admits references
	// to nodes created earlier in the same tuple, including the
	// self-referencing code pattern of repeated sequences).
	size := treeSize(I, D)
	if cap(sc.mark) < size {
		sc.mark = make([]byte, size)
	}
	mark := sc.mark[:size]
	sc.mark = mark
	clear(mark)
	nodes, starts := D.Nodes, D.Starts
	limit := len(I) // + created so far
	for r := 0; r < rows; r++ {
		row := nodes[starts[r]:starts[r+1]]
		for j, n := range row {
			if n == 0 || int(n) > limit+j {
				return fmt.Errorf("core: node index %d invalid at row %d pos %d (limit %d)", n, r, j, limit+j)
			}
			mark[n] = 1
		}
		if len(row) > 0 {
			limit += len(row) - 1
		}
	}
	// Algorithm 1 codes the first occurrence of a pair as its first-layer
	// node, so it never leaves one unreferenced. A hand-built image can;
	// such a pair would keep its number in the resident form and be the
	// one node no tuple reaches, so the image is refused.
	for k := range I {
		if mark[k+1] == 0 {
			return fmt.Errorf("core: first-layer pair %d is not referenced by D", k)
		}
	}
	return nil
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
