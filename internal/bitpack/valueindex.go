package bitpack

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ValueIndex is the §3.2 value-indexing (dictionary) encoding for float64
// values: all unique values are stored once in an array, and occurrences are
// replaced by bit-packed indexes into that array.
//
// "Unique" means unique bit pattern: a value's index is found through an
// open-addressed, power-of-two table keyed on math.Float64bits, not a Go
// map keyed on the float. Bits are what Decode has to give back, so two
// values share an entry exactly when storing one for the other loses
// nothing. That differs from == only in the lossless direction: a NaN is
// found again (under == every occurrence got its own entry) and -0 no
// longer decodes as the +0 interned before it.
type ValueIndex struct {
	values  []float64 // unique values, in first-appearance order
	lookup  []uint32  // 0 = free, else 1 + index into values (which holds the keys); encode side only, built by the first Intern
	indexes []uint32  // one index per input value, in input order
}

// BuildValueIndex dictionary-encodes vals.
func BuildValueIndex(vals []float64) *ValueIndex {
	vi, indexes := new(ValueIndex), make([]uint32, len(vals))
	for k, v := range vals {
		indexes[k] = vi.Intern(v)
	}
	vi.indexes = indexes
	return vi
}

// Intern returns the dictionary index for v, adding it if unseen. It does
// not append to the occurrence list; use BuildValueIndex for that. The
// lookup table only serves Intern, so it is built (and doubled, keeping
// its load <= 1/2) here — a decoded dictionary (ReadValueIndex) that is
// never extended never pays for it.
func (vi *ValueIndex) Intern(v float64) uint32 {
	if 2*(len(vi.values)+1) > len(vi.lookup) {
		size := 16
		for size < 4*len(vi.values) {
			size <<= 1
		}
		vi.lookup = make([]uint32, size)
		for k, u := range vi.values {
			vi.lookup[vi.slot(math.Float64bits(u))] = uint32(k + 1)
		}
	}
	i := vi.slot(math.Float64bits(v))
	if vi.lookup[i] == 0 {
		vi.values = append(vi.values, v)
		vi.lookup[i] = uint32(len(vi.values))
	}
	return vi.lookup[i] - 1
}

// slot returns the position in lookup of bit pattern b's entry, or of the
// free slot where it belongs (linear probing). Round values differ only
// in the high bits of their pattern, so the high half is folded down
// before a multiply whose upper bits pick the home slot.
func (vi *ValueIndex) slot(b uint64) int {
	mask := len(vi.lookup) - 1
	i := int((b^b>>32)*0x9e3779b97f4a7c15>>32) & mask
	for vi.lookup[i] != 0 && math.Float64bits(vi.values[vi.lookup[i]-1]) != b {
		i = (i + 1) & mask
	}
	return i
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
