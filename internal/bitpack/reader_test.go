package bitpack

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	u32s := []uint32{0, 1, 1 << 31, math.MaxUint32, 7}
	f64s := []float64{0, -1.5, math.Inf(1), math.Pi}
	img := []byte{9}
	img = binary.LittleEndian.AppendUint16(img, 3)
	img = append(img, "abc"...)
	img = binary.LittleEndian.AppendUint64(img, 1<<40)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(f64s)))
	img = AppendF64s(img, f64s)
	img = AppendU32s(img, u32s)
	img = Pack([]uint32{5, 300, 2}).AppendTo(img)

	r := NewReader(img)
	if got := r.U8(); got != 9 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.Str(); got != "abc" {
		t.Fatalf("Str = %q", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.F64s(r.Count("values", 8)); !reflect.DeepEqual(got, f64s) {
		t.Fatalf("F64s = %v", got)
	}
	if got := r.U32s(len(u32s)); !reflect.DeepEqual(got, u32s) {
		t.Fatalf("U32s = %v", got)
	}
	if a := r.Array(); !reflect.DeepEqual(a.Unpack(), []uint32{5, 300, 2}) {
		t.Fatalf("Array = %v", a.Unpack())
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// The first short read poisons every later one, and Done reports bytes
// an image leaves unread.
func TestReaderStickyErrorAndTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if got := r.U32(); got != 0 || r.Err() == nil {
		t.Fatalf("U32 of 3 bytes = %d, err %v", got, r.Err())
	}
	if got := r.U8(); got != 0 {
		t.Fatalf("U8 after an overrun = %d, want 0", got)
	}
	if r.Take(-1) != nil || r.Done() == nil {
		t.Fatal("an overrun reader reported no error")
	}
	r = NewReader([]byte{1, 2, 3})
	r.Take(2)
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Done with a byte left: %v", err)
	}
	if r := NewReader([]byte{1}); r.Take(-1) != nil || r.Err() == nil {
		t.Fatal("Take(-1) succeeded")
	}
}

// A count or a length the bytes left cannot back is refused before
// anything is sized by it, even where a product of the claim would wrap,
// and a count of zero-length records is bounded too.
func TestReaderRefusesClaimsBeforeAllocating(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	for name, read := range map[string]func(r *Reader){
		"count of 8-byte records": func(r *Reader) { r.Count("records", 8) },
		"count of empty records":  func(r *Reader) { r.Count("records", 0) },
		"F64s":                    func(r *Reader) { r.U32(); r.F64s(1 << 61) },
		"U32s":                    func(r *Reader) { r.U32(); r.U32s(math.MaxInt / 2) },
		"negative U32s":           func(r *Reader) { r.U32(); r.U32s(-1) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(huge)
		read(&r)
		runtime.ReadMemStats(&after)
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, got)
		}
	}
	r := NewReader(binary.LittleEndian.AppendUint32(nil, 4))
	if n := r.Count("empty records", 0); n != 0 || r.Err() == nil {
		t.Fatalf("4 empty records in 0 bytes: n = %d, err %v", n, r.Err())
	}
	r = NewReader(append(binary.LittleEndian.AppendUint32(nil, 2), 0, 0))
	if n := r.Count("empty records", 0); n != 2 || r.Err() != nil {
		t.Fatalf("2 empty records in 2 bytes: n = %d, err %v", n, r.Err())
	}
}
