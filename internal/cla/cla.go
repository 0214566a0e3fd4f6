// Package cla is a simplified reimplementation of Compressed Linear
// Algebra (Elgohary et al., VLDB 2016, the paper's citation [14]), the
// state-of-the-art light-weight matrix compression baseline of the
// evaluation. The matrix is partitioned into column groups (co-coding);
// each group stores a dictionary of its distinct value tuples and picks the
// cheapest of four layouts:
//
//	DDC — dense dictionary coding: one dictionary index per row
//	OLE — offset-list encoding: per distinct non-zero tuple, the sorted
//	      list of rows where it occurs
//	RLE — run-length encoding: per distinct non-zero tuple, (start,len) runs
//	UC  — uncompressed fallback
//
// Matrix operations execute directly on the groups: per-tuple partial
// products are computed once against the dictionary and then distributed
// by the row structures. CLA's defining trade-off — an explicit dictionary
// whose cost is amortized over whole-dataset batch gradient descent but
// not over small mini-batches — emerges naturally from this layout and is
// exactly what the paper's Figure 5 exploits.
package cla

import (
	"encoding/binary"
	"math"

	"toc/internal/bitpack"
	"toc/internal/matrix"
)

type groupKind uint8

const (
	kindDDC groupKind = iota
	kindOLE
	kindRLE
	kindUC
)

func (k groupKind) String() string {
	switch k {
	case kindDDC:
		return "DDC"
	case kindOLE:
		return "OLE"
	case kindRLE:
		return "RLE"
	default:
		return "UC"
	}
}

// run is one RLE run: rows [start, start+length).
type run struct {
	start, length uint32
}

// group is one column group with its chosen encoding.
type group struct {
	kind groupKind
	cols []int // column indexes, ascending

	// dictionary of distinct value tuples, tuple-major:
	// dict[t*len(cols)+k] is column cols[k] of tuple t. Unused for UC.
	dict []float64

	rowIdx  []uint32   // DDC: dictionary tuple per row
	offsets [][]uint32 // OLE: rows per non-zero dictionary tuple
	runs    [][]run    // RLE: runs per non-zero dictionary tuple
	raw     []float64  // UC: rows × len(cols), row-major
}

// Matrix is a CLA-compressed mini-batch.
type Matrix struct {
	rows, cols int
	groups     []*group
}

// maxGroupWidth bounds co-coding so dictionary tuples stay small.
const maxGroupWidth = 6

// Compress encodes a dense mini-batch with column co-coding.
func Compress(d *matrix.Dense) *Matrix {
	m := &Matrix{rows: d.Rows(), cols: d.Cols()}
	if d.Cols() == 0 {
		return m
	}
	// Greedy sequential co-coding: extend the current group with the next
	// column while the combined encoding is no larger than encoding them
	// separately.
	cur := []int{0}
	curSize := bestEncodingSize(d, cur)
	for c := 1; c < d.Cols(); c++ {
		single := bestEncodingSize(d, []int{c})
		if len(cur) < maxGroupWidth {
			combined := append(append([]int(nil), cur...), c)
			combSize := bestEncodingSize(d, combined)
			if combSize <= curSize+single {
				cur, curSize = combined, combSize
				continue
			}
		}
		m.groups = append(m.groups, buildGroup(d, cur))
		cur, curSize = []int{c}, single
	}
	m.groups = append(m.groups, buildGroup(d, cur))
	return m
}

// tupleKey packs a group's row values into a comparable string.
func tupleKey(buf []byte, d *matrix.Dense, row int, cols []int) string {
	for k, c := range cols {
		binary.LittleEndian.PutUint64(buf[8*k:], math.Float64bits(d.At(row, c)))
	}
	return string(buf[:8*len(cols)])
}

// groupStats extracts the distinct tuples of a candidate group and the
// per-row tuple assignment.
func groupStats(d *matrix.Dense, cols []int) (dict []float64, rowIdx []uint32, zeroTuple int) {
	w := len(cols)
	buf := make([]byte, 8*w)
	seen := make(map[string]uint32)
	rowIdx = make([]uint32, d.Rows())
	zeroTuple = -1
	for i := 0; i < d.Rows(); i++ {
		key := tupleKey(buf, d, i, cols)
		idx, ok := seen[key]
		if !ok {
			idx = uint32(len(seen))
			seen[key] = idx
			allZero := true
			for _, c := range cols {
				v := d.At(i, c)
				dict = append(dict, v)
				if v != 0 {
					allZero = false
				}
			}
			if allZero {
				zeroTuple = int(idx)
			}
		}
		rowIdx[i] = idx
	}
	return dict, rowIdx, zeroTuple
}

// sizeOf computes the encoded byte size of each layout for a group.
func sizeOf(rows, width, distinct, nonZeroDistinct, nonZeroRows, totalRuns int) (ddc, ole, rle, uc int) {
	offW := bitpack.BytesPerInt(uint32(max(rows-1, 0)))
	dictW := bitpack.BytesPerInt(uint32(max(distinct-1, 0)))
	hdr := 8 + 4*width // group header + column list
	ddc = hdr + 8*width*distinct + dictW*rows
	ole = hdr + 8*width*nonZeroDistinct + 4*nonZeroDistinct + offW*nonZeroRows
	rle = hdr + 8*width*nonZeroDistinct + 4*nonZeroDistinct + 2*offW*totalRuns
	uc = hdr + 8*width*rows
	return
}

// maxRun is the longest run an RLE group of rows rows stores. A run's
// length is packed at the offsets' width, BytesPerInt(rows-1), which
// holds rows itself unless rows is a power of 256: then a run over every
// row is split in two.
func maxRun(rows int) uint32 {
	return uint32(uint64(1)<<(8*bitpack.BytesPerInt(uint32(max(rows-1, 0)))) - 1)
}

// layoutCounts derives the quantities the size model needs.
func layoutCounts(rowIdx []uint32, zeroTuple int, distinct int) (nonZeroRows, totalRuns int) {
	prev, limit, length := uint32(math.MaxUint32), maxRun(len(rowIdx)), uint32(0)
	for _, t := range rowIdx {
		isZero := zeroTuple >= 0 && t == uint32(zeroTuple)
		if !isZero {
			nonZeroRows++
			if t != prev || length == limit {
				totalRuns++
				length = 0
			}
			length++
		}
		if isZero {
			prev = math.MaxUint32
		} else {
			prev = t
		}
	}
	return
}

func bestEncodingSize(d *matrix.Dense, cols []int) int {
	dict, rowIdx, zeroTuple := groupStats(d, cols)
	distinct := len(dict) / max(len(cols), 1)
	nzd := distinct
	if zeroTuple >= 0 {
		nzd--
	}
	nonZeroRows, totalRuns := layoutCounts(rowIdx, zeroTuple, distinct)
	ddc, ole, rle, uc := sizeOf(d.Rows(), len(cols), distinct, nzd, nonZeroRows, totalRuns)
	return min(ddc, ole, rle, uc)
}

// buildGroup constructs the group with its cheapest layout.
func buildGroup(d *matrix.Dense, cols []int) *group {
	dict, rowIdx, zeroTuple := groupStats(d, cols)
	w := len(cols)
	distinct := len(dict) / w
	nzd := distinct
	if zeroTuple >= 0 {
		nzd--
	}
	nonZeroRows, totalRuns := layoutCounts(rowIdx, zeroTuple, distinct)
	ddc, ole, rle, uc := sizeOf(d.Rows(), w, distinct, nzd, nonZeroRows, totalRuns)

	g := &group{cols: append([]int(nil), cols...)}
	best := min(ddc, ole, rle, uc)
	switch best {
	case ddc:
		g.kind = kindDDC
		g.dict = dict
		g.rowIdx = rowIdx
	case ole:
		g.kind = kindOLE
		g.dict, g.offsets = nonZeroLayout(dict, rowIdx, zeroTuple, w, func(lists [][]uint32, t uint32, row int) {
			lists[t] = append(lists[t], uint32(row))
		})
	case rle:
		g.kind = kindRLE
		g.dict, g.runs = rleLayout(dict, rowIdx, zeroTuple, w)
	default:
		g.kind = kindUC
		g.raw = make([]float64, d.Rows()*w)
		for i := 0; i < d.Rows(); i++ {
			for k, c := range cols {
				g.raw[i*w+k] = d.At(i, c)
			}
		}
	}
	return g
}

// nonZeroLayout remaps the dictionary dropping the zero tuple and collects
// per-tuple row lists.
func nonZeroLayout(dict []float64, rowIdx []uint32, zeroTuple, w int,
	add func(lists [][]uint32, t uint32, row int)) ([]float64, [][]uint32) {
	distinct := len(dict) / w
	remap := make([]int, distinct)
	var nzDict []float64
	next := 0
	for t := 0; t < distinct; t++ {
		if t == zeroTuple {
			remap[t] = -1
			continue
		}
		remap[t] = next
		nzDict = append(nzDict, dict[t*w:(t+1)*w]...)
		next++
	}
	lists := make([][]uint32, next)
	for row, t := range rowIdx {
		if nt := remap[t]; nt >= 0 {
			add(lists, uint32(nt), row)
		}
	}
	return nzDict, lists
}

// rleLayout builds per-tuple run lists (zero tuple dropped), no run
// longer than maxRun.
func rleLayout(dict []float64, rowIdx []uint32, zeroTuple, w int) ([]float64, [][]run) {
	distinct := len(dict) / w
	remap := make([]int, distinct)
	var nzDict []float64
	next := 0
	for t := 0; t < distinct; t++ {
		if t == zeroTuple {
			remap[t] = -1
			continue
		}
		remap[t] = next
		nzDict = append(nzDict, dict[t*w:(t+1)*w]...)
		next++
	}
	runs := make([][]run, next)
	limit := maxRun(len(rowIdx))
	for row := 0; row < len(rowIdx); row++ {
		nt := remap[rowIdx[row]]
		if nt < 0 {
			continue
		}
		rs := runs[nt]
		if n := len(rs); n > 0 && rs[n-1].start+rs[n-1].length == uint32(row) && rs[n-1].length < limit {
			rs[n-1].length++
		} else {
			rs = append(rs, run{start: uint32(row), length: 1})
		}
		runs[nt] = rs
	}
	return nzDict, runs
}
