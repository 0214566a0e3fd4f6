package bitpack

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ValueIndex is the §3.2 value-indexing (dictionary) encoding for float64
// values: all unique values are stored once in an array, and occurrences are
// replaced by bit-packed indexes into that array.
type ValueIndex struct {
	values  []float64          // unique values, in first-appearance order
	lookup  map[float64]uint32 // value -> index in values; encode side only, built by the first Intern
	indexes []uint32           // one index per input value, in input order
}

// BuildValueIndex dictionary-encodes vals.
func BuildValueIndex(vals []float64) *ValueIndex {
	vi := NewValueIndex()
	vi.indexes = make([]uint32, 0, len(vals))
	for _, v := range vals {
		vi.indexes = append(vi.indexes, vi.Intern(v))
	}
	return vi
}

// NewValueIndex returns an empty dictionary for incremental interning.
func NewValueIndex() *ValueIndex {
	return new(ValueIndex)
}

// Intern returns the dictionary index for v, adding it if unseen. It does
// not append to the occurrence list; use BuildValueIndex for that. The
// value -> index map only serves Intern, so it is built here on first use
// — a decoded dictionary (ReadValueIndex) that is never extended never
// pays for it, which was 60% of decoding a batch image.
func (vi *ValueIndex) Intern(v float64) uint32 {
	if vi.lookup == nil {
		vi.lookup = make(map[float64]uint32, len(vi.values))
		for i, u := range vi.values {
			vi.lookup[u] = uint32(i)
		}
	}
	if idx, ok := vi.lookup[v]; ok {
		return idx
	}
	idx := uint32(len(vi.values))
	vi.values = append(vi.values, v)
	vi.lookup[v] = idx
	return idx
}

// NumUnique returns the dictionary size.
func (vi *ValueIndex) NumUnique() int { return len(vi.values) }

// Value returns the value stored at dictionary index i.
func (vi *ValueIndex) Value(i uint32) float64 { return vi.values[i] }

// Values returns the dictionary contents (aliased).
func (vi *ValueIndex) Values() []float64 { return vi.values }

// Indexes returns the occurrence index list built by BuildValueIndex.
func (vi *ValueIndex) Indexes() []uint32 { return vi.indexes }

// EncodedSize returns the bytes AppendTo writes: the value dictionary
// (uint32 count + 8 bytes per value) plus the bit-packed occurrence
// indexes — computed arithmetically (a max scan, no packing), so callers
// presizing a buffer do not pay AppendTo's O(n) pack twice.
func (vi *ValueIndex) EncodedSize() int {
	var max uint32
	for _, v := range vi.indexes {
		if v > max {
			max = v
		}
	}
	return 4 + 8*len(vi.values) + headerSize + BytesPerInt(max)*len(vi.indexes)
}

// AppendTo appends the encoded dictionary and occurrence indexes to dst.
func (vi *ValueIndex) AppendTo(dst []byte) []byte {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(vi.values)))
	dst = append(dst, cnt[:]...)
	var b [8]byte
	for _, v := range vi.values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return Pack(vi.indexes).AppendTo(dst)
}

// ReadValueIndex decodes a ValueIndex from the front of buf, returning it
// and the remaining bytes.
func ReadValueIndex(buf []byte) (*ValueIndex, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("bitpack: truncated value index header")
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	buf = buf[4:]
	if len(buf) < 8*n {
		return nil, nil, fmt.Errorf("bitpack: truncated value dictionary: have %d, need %d", len(buf), 8*n)
	}
	vi := &ValueIndex{values: make([]float64, n)}
	for i := range vi.values {
		vi.values[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	buf = buf[8*n:]
	arr, rest, err := ReadArray(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("bitpack: value index occurrences: %w", err)
	}
	vi.indexes = arr.Unpack()
	for _, idx := range vi.indexes {
		if int(idx) >= n {
			return nil, nil, fmt.Errorf("bitpack: value index %d out of range %d", idx, n)
		}
	}
	return vi, rest, nil
}

// Decode reconstructs the original value sequence from the dictionary and
// the occurrence indexes.
func (vi *ValueIndex) Decode() []float64 {
	out := make([]float64, len(vi.indexes))
	for i, idx := range vi.indexes {
		out[i] = vi.values[idx]
	}
	return out
}
