package bitpack

import (
	"reflect"
	"testing"
	"testing/quick"
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
		a := Pack(vals)
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
	a := Pack(vals)
	buf := a.AppendTo(nil)
	if len(buf) != a.EncodedSize() {
		t.Fatalf("encoded size %d != declared %d", len(buf), a.EncodedSize())
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
		a := Pack(vals)
		back, rest, err := ReadArray(a.AppendTo(nil))
		if err != nil || len(rest) != 0 {
			return false
		}
		got := back.Unpack()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValueIndexBasics(t *testing.T) {
	vals := []float64{1.1, 2, 1.1, 3, 2, 1.1}
	vi := BuildValueIndex(vals)
	if !reflect.DeepEqual(vi.Values(), []float64{1.1, 2, 3}) {
		t.Fatalf("dictionary = %v, want first-appearance order", vi.Values())
	}
	if !reflect.DeepEqual(vi.Indexes(), []uint32{0, 1, 0, 2, 1, 0}) {
		t.Fatalf("indexes = %v", vi.Indexes())
	}
	// Interning into a built dictionary keeps known values' indexes and
	// extends it with new ones.
	for want, v := range []float64{1.1, 2, 3, 9} {
		if idx := vi.intern(v); idx != uint32(want) {
			t.Fatalf("intern(%v) = %d, want %d", v, idx, want)
		}
	}
}

// An empty input builds an empty dictionary and no indexes.
func TestValueIndexEmpty(t *testing.T) {
	vi := BuildValueIndex(nil)
	if len(vi.Values()) != 0 || len(vi.Indexes()) != 0 {
		t.Fatal("empty value index is not empty")
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
	packed := Pack(vals).EncodedSize()
	varint := len(PackVarint(vals))
	if varint >= packed {
		t.Fatalf("varint %d should beat bitpack %d on skewed data", varint, packed)
	}
}
