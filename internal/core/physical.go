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

// Serialize returns the physical byte image of the batch. A batch made
// by Scale or Square has none yet; its D goes back to the paper's
// numbering through the inverse map, so the image is the one Compress
// would have written for the same (I, D).
func (b *Batch) Serialize() []byte {
	if b.img == nil {
		b.img = b.buildImage(b.d.paperNodes(len(b.i)))
	}
	return b.img
}

// buildImage serializes in one exactly-sized allocation; nodes is D's
// node indexes in the paper's numbering. The SparseLogical section sizes
// are computable up front and its raw u32 sections are written with bulk
// little-endian stores; the Full image is assembled in a pooled
// encoder's staging memory.
func (b *Batch) buildImage(nodes []uint32) []byte {
	switch b.variant {
	case Full:
		e := encoderPool.Get().(*encoder)
		defer encoderPool.Put(e)
		return e.fullImage(b, nodes)

	case SparseLogical:
		size := headerSize + 4 + 12*len(b.i) + 4 + 4*len(nodes) + 4*len(b.d.Starts)
		out := b.appendHeader(make([]byte, headerSize, size))[:size]
		off := headerSize
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
		putU32s(out[off:], b.d.Starts)
		return out
	}
	return b.appendHeader(make([]byte, 0, headerSize))
}

// fullImage writes the Figure 3 physical encoding of b: I's column
// indexes bit packed, I's values value-indexed (§3.2: the unique values
// once, in first-appearance order, then a bit-packed dictionary index per
// pair), D's node indexes (nodes, in the paper's numbering) and tuple
// starts bit packed. It is assembled in
// the encoder's staging memory and copied out at exact length; the bytes
// are exactly what bitpack.Pack and bitpack.BuildValueIndex would append
// (TestEncoderMatchesMapOracle), and bitpack.ReadArray and ReadValueIndex
// read them back.
func (e *encoder) fullImage(b *Batch, nodes []uint32) []byte {
	e.dict.reset()
	e.cols, e.vals, e.occ = e.cols[:0], e.vals[:0], e.occ[:0]
	for _, p := range b.i {
		id, added := e.dict.intern(math.Float64bits(p.Val), 0, uint32(len(e.vals))+1)
		if added {
			e.vals = append(e.vals, p.Val)
		}
		e.cols = append(e.cols, p.Col)
		e.occ = append(e.occ, id-1)
	}
	out := b.appendHeader(e.img)
	out = appendPacked(out, e.cols)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(e.vals)))
	for _, v := range e.vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	out = appendPacked(out, e.occ)
	out = appendPacked(out, nodes)
	out = appendPacked(out, b.d.Starts)
	e.img = out
	return exactCopy(out)
}

// appendPacked appends vals as a bit-packed array: u32 count, u8 bytes
// per integer, then each value in that many little-endian bytes.
func appendPacked(out []byte, vals []uint32) []byte {
	var top uint32
	for _, v := range vals {
		top = max(top, v)
	}
	width := bitpack.BytesPerInt(top)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(vals)))
	out = append(out, byte(width))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, v)[:len(out)+width]
	}
	return out
}

// appendHeader writes the shared image header at the start of out's
// backing array (allocating if it is too small) and returns out sized to it.
func (b *Batch) appendHeader(out []byte) []byte {
	out = append(out[:0], imageMagic...)
	out = append(out, imageVersion, byte(b.variant))
	out = binary.LittleEndian.AppendUint32(out, uint32(b.rows))
	return binary.LittleEndian.AppendUint32(out, uint32(b.cols))
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
	buf := img[headerSize:]
	var I []Pair
	var D dTable
	var err error
	if v == Full {
		I, D, err = parseFull(buf)
	} else {
		I, D, err = parseSparseLogical(buf, rows)
	}
	if err != nil {
		return nil, err
	}
	return newLogical(rows, cols, v, I, D, img)
}

// parseFull unpacks the sections of a Full image into (I, D), range
// checked by bitpack but not yet validated against each other.
func parseFull(buf []byte) (I []Pair, D dTable, err error) {
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
	return I, dTable{Nodes: nodesArr.Unpack(), Starts: startsArr.Unpack()}, nil
}

// parseSparseLogical is parseFull for the raw SparseLogical sections.
func parseSparseLogical(buf []byte, rows int) (I []Pair, D dTable, err error) {
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
	D = dTable{Nodes: make([]uint32, lenN), Starts: make([]uint32, rows+1)}
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
func (b *Batch) validateLogical(sc *liveScratch) error {
	for k, p := range b.i {
		if int(p.Col) >= b.cols {
			return fmt.Errorf("core: I[%d] column %d out of range %d", k, p.Col, b.cols)
		}
	}
	if len(b.d.Starts) != b.rows+1 {
		return fmt.Errorf("core: starts length %d != rows+1 (%d)", len(b.d.Starts), b.rows+1)
	}
	prev := uint32(0)
	for k, s := range b.d.Starts {
		if s < prev {
			return fmt.Errorf("core: starts not monotone at %d", k)
		}
		prev = s
	}
	if b.d.Starts[0] != 0 || int(b.d.Starts[b.rows]) != len(b.d.Nodes) {
		return fmt.Errorf("core: starts endpoints invalid")
	}
	// Replay node creation: each of a tuple's elements except the last
	// created exactly one node during encoding, so at element j of a tuple,
	// nodes 1..len(I)+created+j are addressable (the +j admits references
	// to nodes created earlier in the same tuple, including the
	// self-referencing code pattern of repeated sequences).
	size := treeSize(b.i, b.d)
	if cap(sc.mark) < size {
		sc.mark = make([]byte, size)
	}
	mark := sc.mark[:size]
	sc.mark = mark
	clear(mark)
	nodes, starts := b.d.Nodes, b.d.Starts
	limit := len(b.i) // + created so far
	for r := 0; r < b.rows; r++ {
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
	for k := range b.i {
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
