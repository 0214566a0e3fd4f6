package bitpack

import "math"

// ValueIndex is the §3.2 value-indexing (dictionary) encoding for float64
// values: all unique values are stored once in an array, and occurrences are
// replaced by bit-packed indexes into that array. It is the encode side
// only: a reader of the encoded form, like core's Deserialize, looks each
// index up in the dictionary's bytes itself.
//
// "Unique" means unique bit pattern: a value's index is found through an
// open-addressed, power-of-two table keyed on math.Float64bits, not a Go
// map keyed on the float. Bits are what a reader has to give back, so two
// values share an entry exactly when storing one for the other loses
// nothing. That differs from == only in the lossless direction: a NaN is
// found again (under == every occurrence got its own entry) and -0 no
// longer decodes as the +0 interned before it.
type ValueIndex struct {
	values  []float64 // unique values, in first-appearance order
	lookup  []uint32  // 0 = free, else 1 + index into values (which holds the keys), built by the first intern
	indexes []uint32  // one index per input value, in input order
}

// BuildValueIndex dictionary-encodes vals.
func BuildValueIndex(vals []float64) *ValueIndex {
	vi, indexes := new(ValueIndex), make([]uint32, len(vals))
	for k, v := range vals {
		indexes[k] = vi.intern(v)
	}
	vi.indexes = indexes
	return vi
}

// intern returns the dictionary index for v, adding it if unseen. It does
// not append to the occurrence list; BuildValueIndex does that. The
// lookup table only serves intern, so it is built (and doubled, keeping
// its load <= 1/2) here.
func (vi *ValueIndex) intern(v float64) uint32 {
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

// Values returns the dictionary contents (aliased).
func (vi *ValueIndex) Values() []float64 { return vi.values }

// Indexes returns the occurrence index list built by BuildValueIndex.
func (vi *ValueIndex) Indexes() []uint32 { return vi.indexes }
