package bitpack

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"toc/internal/testutil"
)

func TestBytesPerInt(t *testing.T) {
	cases := []struct {
		max  uint32
		want int
	}{
		{0, 1}, {1, 1}, {255, 1},
		{256, 2}, {65535, 2},
		{65536, 3}, {1<<24 - 1, 3},
		{1 << 24, 4}, {^uint32(0), 4},
	}
	for _, c := range cases {
		if got := BytesPerInt(c.max); got != c.want {
			t.Errorf("BytesPerInt(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

// pack returns vals as an Array at the width of their largest value,
// written by AppendArray and read back by ReadArray.
func pack(t testing.TB, vals []uint32) Array {
	t.Helper()
	a, rest, err := ReadArray(AppendArray(nil, vals, slices.Max(append([]uint32{0}, vals...))))
	if err != nil || len(rest) != 0 {
		t.Fatalf("ReadArray of AppendArray's %d values: %v, %d bytes left", len(vals), err, len(rest))
	}
	return a
}

// headerless returns the array img holds after prefix bytes without its
// header: AppendPacked's layout.
func headerless(img []byte, prefix int) []byte {
	return append(slices.Clone(img[:prefix]), img[prefix+headerSize:]...)
}

// The writer is the reference byte for byte at every width, from either
// source width, after a prefix it must leave alone, and with a top above
// the data's largest value, which packs wider than the values need (as a
// SparseLogical image's 4-byte sections do); ArraySize is its length.
func TestAppendPackedMatchesReference(t *testing.T) {
	prefix := []byte{0xa5, 0x5a, 0xc3}
	for _, top := range []uint32{0, 0xff, 0x100, 0xffff, 0x10000, 0xffffff, 1 << 24, math.MaxUint32} {
		width := BytesPerInt(top)
		for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 17, 600} {
			vals := unpackWidthValues(width, n)
			vals16 := make([]uint16, n)
			for k := range vals {
				vals[k] = min(vals[k], top)
				vals16[k] = uint16(min(vals[k], 0xffff))
			}
			short := make([]uint32, n)
			for k, v := range vals16 {
				short[k] = uint32(v)
			}
			want, want16 := testutil.RefArray(slices.Clone(prefix), vals, width), testutil.RefArray(slices.Clone(prefix), short, width)
			for _, c := range []struct {
				name      string
				got, want []byte
			}{
				{"AppendPacked", AppendPacked(slices.Clone(prefix), vals, top), headerless(want, len(prefix))},
				{"AppendPacked16", AppendPacked(slices.Clone(prefix), vals16, top), headerless(want16, len(prefix))},
				{"AppendArray", AppendArray(slices.Clone(prefix), vals, top), want},
				{"AppendArray16", AppendArray(slices.Clone(prefix), vals16, top), want16},
			} {
				if !bytes.Equal(c.got, c.want) {
					t.Fatalf("%s of %d values, top %#x: % x, want % x", c.name, n, top, c.got, c.want)
				}
			}
			if got := ArraySize(n, top); got != len(want)-len(prefix) {
				t.Fatalf("ArraySize(%d, %#x) = %d, want %d", n, top, got, len(want)-len(prefix))
			}
		}
	}
}

func TestPackGetAllWidths(t *testing.T) {
	cases := [][]uint32{
		{},                     // empty
		{0, 0, 0},              // all zero -> width 1
		{0, 1, 2, 255},         // width 1
		{0, 256, 65535},        // width 2
		{65536, 1<<24 - 1, 42}, // width 3 (uint24 masking path)
		{1 << 24, 7, 1<<31 + 5},
	}
	wantWidths := []int{1, 1, 1, 2, 3, 4}
	for i, vals := range cases {
		a := pack(t, vals)
		if a.width != wantWidths[i] {
			t.Errorf("case %d: width = %d, want %d", i, a.width, wantWidths[i])
		}
		if a.Len() != len(vals) {
			t.Errorf("case %d: len = %d, want %d", i, a.Len(), len(vals))
		}
		for j, v := range vals {
			if got := a.Get(j); got != v {
				t.Errorf("case %d: Get(%d) = %d, want %d", i, j, got, v)
			}
		}
	}
}

func TestArrayRoundTripBytes(t *testing.T) {
	vals := []uint32{3, 70000, 12, 9}
	buf := AppendArray(nil, vals, 70000)
	if len(buf) != ArraySize(len(vals), 70000) {
		t.Fatalf("encoded size %d != declared %d", len(buf), ArraySize(len(vals), 70000))
	}
	// append trailing garbage to verify rest handling
	buf = append(buf, 0xde, 0xad)
	got, rest, err := ReadArray(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 {
		t.Fatalf("rest = %d bytes, want 2", len(rest))
	}
	if !reflect.DeepEqual(got.Unpack(), vals) {
		t.Fatalf("round trip = %v, want %v", got.Unpack(), vals)
	}
}

func TestReadArrayErrors(t *testing.T) {
	if _, _, err := ReadArray(nil); err == nil {
		t.Fatal("nil should error")
	}
	if _, _, err := ReadArray([]byte{1, 0, 0, 0}); err == nil {
		t.Fatal("short header should error")
	}
	// invalid width
	if _, _, err := ReadArray([]byte{1, 0, 0, 0, 9, 1}); err == nil {
		t.Fatal("width 9 should error")
	}
	// truncated payload: claims 4 ints of width 2 but has 3 bytes
	if _, _, err := ReadArray([]byte{4, 0, 0, 0, 2, 1, 2, 3}); err == nil {
		t.Fatal("truncated payload should error")
	}
}

func TestPackRoundTripProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		a := pack(t, vals)
		return slices.Equal(a.Unpack(), vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUvarint(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 + 9}
	for _, v := range cases {
		buf := AppendUvarint(nil, v)
		got, n, err := Uvarint(buf)
		if err != nil || n != len(buf) || got != v {
			t.Fatalf("varint %d: got %d (n=%d, err=%v)", v, got, n, err)
		}
	}
	if _, _, err := Uvarint(nil); err == nil {
		t.Fatal("empty varint should error")
	}
	if _, _, err := Uvarint([]byte{0x80, 0x80}); err == nil {
		t.Fatal("truncated varint should error")
	}
	long := make([]byte, 12)
	for i := range long {
		long[i] = 0x80
	}
	if _, _, err := Uvarint(long); err == nil {
		t.Fatal("overlong varint should error")
	}
}

func TestPackVarintRoundTrip(t *testing.T) {
	f := func(vals []uint32) bool {
		buf := PackVarint(vals)
		n, c, err := Uvarint(buf)
		if err != nil || n != uint64(len(vals)) {
			return false
		}
		for _, want := range vals {
			buf = buf[c:]
			var v uint64
			if v, c, err = Uvarint(buf); err != nil || v != uint64(want) {
				return false
			}
		}
		return len(buf) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVarintSmallerOnSmallValues(t *testing.T) {
	// With values below 128 varint uses 1 byte each, like bit packing, but
	// with a mixed range bit packing pays the max width for everything.
	vals := make([]uint32, 1000)
	vals[0] = 1 << 20 // forces bitpack width 3
	packed := ArraySize(len(vals), vals[0])
	varint := len(PackVarint(vals))
	if varint >= packed {
		t.Fatalf("varint %d should beat bitpack %d on skewed data", varint, packed)
	}
}
