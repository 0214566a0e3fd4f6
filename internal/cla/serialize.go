package cla

import (
	"encoding/binary"
	"fmt"

	"toc/internal/bitpack"
)

// Wire format for CLA matrices:
//
//	header: magic 0x16 | reserved×3 | rows u32 | cols u32 | numGroups u32
//	per group:
//	  kind u8 | width u8 | reserved×2 | extra u32   (extra = distinct tuples
//	                                                 or offset-list count)
//	  column indexes: width × u32
//	  DDC: dict 8×width×distinct | rowIdx packed at BytesPerInt(distinct-1)
//	  OLE: dict | per list: u32 count + offsets packed at BytesPerInt(rows-1)
//	  RLE: dict | per list: u32 count + runs (start,len) packed likewise
//	  UC:  raw rows×width float64

const claMagic = 0x16

// Serialize returns the wire image; CompressedSize equals its length.
func (m *Matrix) Serialize() []byte {
	out := make([]byte, 0, m.CompressedSize())
	out = append(out, claMagic, 0, 0, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(m.rows))
	out = binary.LittleEndian.AppendUint32(out, uint32(m.cols))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.groups)))
	offW := bitpack.BytesPerInt(uint32(maxInt(m.rows-1, 0)))
	for _, g := range m.groups {
		w := len(g.cols)
		extra := g.extraCount()
		out = append(out, byte(g.kind), byte(w), 0, 0)
		out = binary.LittleEndian.AppendUint32(out, uint32(extra))
		for _, c := range g.cols {
			out = binary.LittleEndian.AppendUint32(out, uint32(c))
		}
		switch g.kind {
		case kindDDC:
			out = bitpack.AppendF64s(out, g.dict)
			distinct := extra
			dw := bitpack.BytesPerInt(uint32(maxInt(distinct-1, 0)))
			out = appendPacked(out, g.rowIdx, dw)
		case kindOLE:
			out = bitpack.AppendF64s(out, g.dict)
			for _, lst := range g.offsets {
				out = binary.LittleEndian.AppendUint32(out, uint32(len(lst)))
				out = appendPacked(out, lst, offW)
			}
		case kindRLE:
			out = bitpack.AppendF64s(out, g.dict)
			for _, rs := range g.runs {
				out = binary.LittleEndian.AppendUint32(out, uint32(len(rs)))
				for _, r := range rs {
					out = appendPackedOne(out, r.start, offW)
					out = appendPackedOne(out, r.length, offW)
				}
			}
		case kindUC:
			out = bitpack.AppendF64s(out, g.raw)
		}
	}
	return out
}

// extraCount is the group's per-kind count field: distinct tuples for DDC,
// list count for OLE/RLE, 0 for UC.
func (g *group) extraCount() int {
	switch g.kind {
	case kindDDC:
		return len(g.dict) / maxInt(len(g.cols), 1)
	case kindOLE:
		return len(g.offsets)
	case kindRLE:
		return len(g.runs)
	default:
		return 0
	}
}

// Deserialize reconstructs a CLA matrix from its wire image, validating
// structure so corrupt images error rather than panic.
func Deserialize(img []byte) (*Matrix, error) {
	r := bitpack.NewReader(img)
	magic := r.U8()
	r.Take(3) // reserved
	rows, cols, nGroups := r.U32(), r.U32(), r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cla: image header: %w", err)
	}
	if magic != claMagic {
		return nil, fmt.Errorf("cla: bad magic %#x", magic)
	}
	// Bound dimensions so corrupt headers cannot trigger enormous
	// allocations below; every column is named by a u32 in some group.
	const maxDim = 1 << 27
	if rows > maxDim || cols > maxDim || nGroups > cols || 4*int(cols) > len(img)-16 {
		return nil, fmt.Errorf("cla: implausible header %dx%d, %d groups", rows, cols, nGroups)
	}
	m := &Matrix{rows: int(rows), cols: int(cols)}
	offW := bitpack.BytesPerInt(uint32(maxInt(m.rows-1, 0)))
	covered := make([]bool, m.cols)
	for gi := 0; gi < int(nGroups); gi++ {
		g, err := m.readGroup(&r, offW, covered)
		if err != nil {
			return nil, fmt.Errorf("cla: group %d: %w", gi, err)
		}
		m.groups = append(m.groups, g)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("cla: %w", err)
	}
	for c, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("cla: column %d not covered by any group", c)
		}
	}
	return m, nil
}

// readGroup reads one column group of m's image, marking its columns in
// covered. Every count is bounded by the bytes left before it sizes a
// slice: a dictionary tuple takes 8 bytes a column, an offset offW bytes
// and a run twice that.
func (m *Matrix) readGroup(r *bitpack.Reader, offW int, covered []bool) (*group, error) {
	g := &group{kind: groupKind(r.U8())}
	w := int(r.U8())
	r.Take(2) // reserved
	extra := r.Count("dictionary tuples", 8*w)
	cols := r.U32s(w)
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case g.kind > kindUC:
		return nil, fmt.Errorf("unknown kind %d", g.kind)
	case w <= 0:
		return nil, fmt.Errorf("width %d", w)
	}
	g.cols = make([]int, w)
	for k, c := range cols {
		if int(c) >= m.cols {
			return nil, fmt.Errorf("column %d out of range %d", c, m.cols)
		}
		if covered[c] {
			return nil, fmt.Errorf("column %d covered twice", c)
		}
		covered[c] = true
		g.cols[k] = int(c)
	}
	switch g.kind {
	case kindDDC:
		g.dict = r.F64s(extra * w)
		g.rowIdx = readPacked(r, m.rows, bitpack.BytesPerInt(uint32(maxInt(extra-1, 0))))
		for _, t := range g.rowIdx {
			if int(t) >= extra {
				return nil, fmt.Errorf("tuple index %d out of range %d", t, extra)
			}
		}
	case kindOLE:
		g.dict = r.F64s(extra * w)
		g.offsets = make([][]uint32, extra)
		for t := range g.offsets {
			g.offsets[t] = readPacked(r, r.Count("offsets", offW), offW)
			for _, row := range g.offsets[t] {
				if int(row) >= m.rows {
					return nil, fmt.Errorf("offset %d out of range %d", row, m.rows)
				}
			}
		}
	case kindRLE:
		g.dict = r.F64s(extra * w)
		g.runs = make([][]run, extra)
		for t := range g.runs {
			vals := readPacked(r, 2*r.Count("runs", 2*offW), offW)
			rs := make([]run, len(vals)/2)
			for ri := range rs {
				rs[ri] = run{start: vals[2*ri], length: vals[2*ri+1]}
				if int(rs[ri].start)+int(rs[ri].length) > m.rows {
					return nil, fmt.Errorf("run %d exceeds rows", ri)
				}
			}
			g.runs[t] = rs
		}
	case kindUC:
		g.raw = r.F64s(m.rows * w)
	}
	return g, r.Err()
}

// appendPacked writes vals at a fixed byte width without a header (the
// width is derivable from counts already on the wire).
func appendPacked(dst []byte, vals []uint32, width int) []byte {
	for _, v := range vals {
		dst = appendPackedOne(dst, v, width)
	}
	return dst
}

func appendPackedOne(dst []byte, v uint32, width int) []byte {
	switch width {
	case 1:
		return append(dst, byte(v))
	case 2:
		return append(dst, byte(v), byte(v>>8))
	case 3:
		return append(dst, byte(v), byte(v>>8), byte(v>>16))
	default:
		return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// readPacked reads n values written by appendPacked at width bytes each.
func readPacked(r *bitpack.Reader, n, width int) []uint32 {
	b := r.Take(n * width)
	if b == nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		var v uint32
		for k, c := range b[i*width : (i+1)*width] {
			v |= uint32(c) << (8 * k)
		}
		out[i] = v
	}
	return out
}
