package cla

import (
	"encoding/binary"
	"fmt"
	"math"

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
	out = appendU32(out, uint32(m.rows))
	out = appendU32(out, uint32(m.cols))
	out = appendU32(out, uint32(len(m.groups)))
	offW := bitpack.BytesPerInt(uint32(maxInt(m.rows-1, 0)))
	for _, g := range m.groups {
		w := len(g.cols)
		extra := g.extraCount()
		out = append(out, byte(g.kind), byte(w), 0, 0)
		out = appendU32(out, uint32(extra))
		for _, c := range g.cols {
			out = appendU32(out, uint32(c))
		}
		switch g.kind {
		case kindDDC:
			out = appendF64s(out, g.dict)
			distinct := extra
			dw := bitpack.BytesPerInt(uint32(maxInt(distinct-1, 0)))
			out = appendPacked(out, g.rowIdx, dw)
		case kindOLE:
			out = appendF64s(out, g.dict)
			for _, lst := range g.offsets {
				out = appendU32(out, uint32(len(lst)))
				out = appendPacked(out, lst, offW)
			}
		case kindRLE:
			out = appendF64s(out, g.dict)
			for _, rs := range g.runs {
				out = appendU32(out, uint32(len(rs)))
				for _, r := range rs {
					out = appendPackedOne(out, r.start, offW)
					out = appendPackedOne(out, r.length, offW)
				}
			}
		case kindUC:
			out = appendF64s(out, g.raw)
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
	if len(img) < 16 {
		return nil, fmt.Errorf("cla: image too short: %d bytes", len(img))
	}
	if img[0] != claMagic {
		return nil, fmt.Errorf("cla: bad magic %#x", img[0])
	}
	m := &Matrix{
		rows: int(binary.LittleEndian.Uint32(img[4:8])),
		cols: int(binary.LittleEndian.Uint32(img[8:12])),
	}
	nGroups := int(binary.LittleEndian.Uint32(img[12:16]))
	buf := img[16:]
	if m.rows < 0 || m.cols < 0 || nGroups < 0 {
		return nil, fmt.Errorf("cla: negative header fields")
	}
	// Bound dimensions so corrupt headers cannot trigger enormous
	// allocations below; every column is named by a u32 in some group.
	const maxDim = 1 << 27
	if m.rows > maxDim || m.cols > maxDim || nGroups > m.cols || 4*m.cols > len(buf) {
		return nil, fmt.Errorf("cla: implausible header %dx%d, %d groups", m.rows, m.cols, nGroups)
	}
	offW := bitpack.BytesPerInt(uint32(maxInt(m.rows-1, 0)))
	covered := make([]bool, m.cols)
	for gi := 0; gi < nGroups; gi++ {
		if len(buf) < 8 {
			return nil, fmt.Errorf("cla: truncated group %d header", gi)
		}
		g := &group{kind: groupKind(buf[0])}
		w := int(buf[1])
		extra := int(binary.LittleEndian.Uint32(buf[4:8]))
		buf = buf[8:]
		if g.kind > kindUC {
			return nil, fmt.Errorf("cla: group %d has unknown kind %d", gi, g.kind)
		}
		if w <= 0 {
			return nil, fmt.Errorf("cla: group %d has width %d", gi, w)
		}
		cols, rest, err := takeU32s(buf, w)
		if err != nil {
			return nil, fmt.Errorf("cla: group %d columns: %w", gi, err)
		}
		buf = rest
		g.cols = make([]int, w)
		for k, c := range cols {
			if int(c) >= m.cols {
				return nil, fmt.Errorf("cla: group %d column %d out of range %d", gi, c, m.cols)
			}
			if covered[c] {
				return nil, fmt.Errorf("cla: column %d covered twice", c)
			}
			covered[c] = true
			g.cols[k] = int(c)
		}
		switch g.kind {
		case kindDDC:
			g.dict, buf, err = takeF64s(buf, extra*w)
			if err != nil {
				return nil, fmt.Errorf("cla: group %d dict: %w", gi, err)
			}
			dw := bitpack.BytesPerInt(uint32(maxInt(extra-1, 0)))
			g.rowIdx, buf, err = takePacked(buf, m.rows, dw)
			if err != nil {
				return nil, fmt.Errorf("cla: group %d rowIdx: %w", gi, err)
			}
			for _, t := range g.rowIdx {
				if int(t) >= extra {
					return nil, fmt.Errorf("cla: group %d tuple index %d out of range %d", gi, t, extra)
				}
			}
		case kindOLE:
			g.dict, buf, err = takeF64s(buf, extra*w)
			if err != nil {
				return nil, fmt.Errorf("cla: group %d dict: %w", gi, err)
			}
			g.offsets = make([][]uint32, extra)
			for t := range g.offsets {
				var cnt []uint32
				cnt, buf, err = takeU32s(buf, 1)
				if err != nil {
					return nil, fmt.Errorf("cla: group %d list %d: %w", gi, t, err)
				}
				g.offsets[t], buf, err = takePacked(buf, int(cnt[0]), offW)
				if err != nil {
					return nil, fmt.Errorf("cla: group %d list %d: %w", gi, t, err)
				}
				for _, row := range g.offsets[t] {
					if int(row) >= m.rows {
						return nil, fmt.Errorf("cla: group %d offset %d out of range %d", gi, row, m.rows)
					}
				}
			}
		case kindRLE:
			g.dict, buf, err = takeF64s(buf, extra*w)
			if err != nil {
				return nil, fmt.Errorf("cla: group %d dict: %w", gi, err)
			}
			g.runs = make([][]run, extra)
			for t := range g.runs {
				var cnt []uint32
				cnt, buf, err = takeU32s(buf, 1)
				if err != nil {
					return nil, fmt.Errorf("cla: group %d runs %d: %w", gi, t, err)
				}
				if uint64(len(buf)) < uint64(cnt[0])*uint64(2*offW) {
					return nil, fmt.Errorf("cla: group %d runs %d: truncated (need %d runs)", gi, t, cnt[0])
				}
				rs := make([]run, cnt[0])
				for ri := range rs {
					var vals []uint32
					vals, buf, err = takePacked(buf, 2, offW)
					if err != nil {
						return nil, fmt.Errorf("cla: group %d run %d: %w", gi, ri, err)
					}
					rs[ri] = run{start: vals[0], length: vals[1]}
					if int(vals[0])+int(vals[1]) > m.rows {
						return nil, fmt.Errorf("cla: group %d run %d exceeds rows", gi, ri)
					}
				}
				g.runs[t] = rs
			}
		case kindUC:
			g.raw, buf, err = takeF64s(buf, m.rows*w)
			if err != nil {
				return nil, fmt.Errorf("cla: group %d raw: %w", gi, err)
			}
		}
		m.groups = append(m.groups, g)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("cla: %d trailing bytes", len(buf))
	}
	for c, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("cla: column %d not covered by any group", c)
		}
	}
	return m, nil
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendF64s(dst []byte, vals []float64) []byte {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

func takeU32s(buf []byte, n int) ([]uint32, []byte, error) {
	if n < 0 || len(buf) < 4*n {
		return nil, nil, fmt.Errorf("truncated u32 section (need %d)", n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return out, buf[4*n:], nil
}

func takeF64s(buf []byte, n int) ([]float64, []byte, error) {
	if n < 0 || len(buf) < 8*n {
		return nil, nil, fmt.Errorf("truncated f64 section (need %d)", n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, buf[8*n:], nil
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

func takePacked(buf []byte, n, width int) ([]uint32, []byte, error) {
	if n < 0 || len(buf) < n*width {
		return nil, nil, fmt.Errorf("truncated packed section (need %d×%d)", n, width)
	}
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		off := i * width
		var v uint32
		for b := 0; b < width; b++ {
			v |= uint32(buf[off+b]) << (8 * b)
		}
		out[i] = v
	}
	return out, buf[n*width:], nil
}
