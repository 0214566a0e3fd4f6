package bitpack

import (
	"testing"
)

// The decode hot paths allocate nothing: Get is pure bit arithmetic,
// AppendArray into a sized buffer reuses it, and the varint reader walks
// the input in place. These pins keep the per-batch decode loops
// allocation-free as the kernels above them assume.

func TestGetAllocs(t *testing.T) {
	vals := make([]uint32, 4096)
	for i := range vals {
		vals[i] = uint32(i * 7 % 1000)
	}
	a := pack(t, vals)
	var sink uint32
	got := testing.AllocsPerRun(20, func() {
		for i := 0; i < a.Len(); i++ {
			sink += a.Get(i)
		}
	})
	if got != 0 {
		t.Errorf("Array.Get loop allocates %.0f objects/run, want 0", got)
	}
	_ = sink
}

func TestAppendToAllocs(t *testing.T) {
	vals := make([]uint32, 1024)
	for i := range vals {
		vals[i] = uint32(i % 513)
	}
	for _, top := range []uint32{0xff, 0xffff, 0xffffff, 0xffffffff} {
		buf := make([]byte, 0, ArraySize(len(vals), top))
		got := testing.AllocsPerRun(20, func() {
			buf = AppendArray(buf[:0], vals, top)
		})
		if got != 0 {
			t.Errorf("AppendArray at width %d into a sized buffer allocates %.0f objects/run, want 0", BytesPerInt(top), got)
		}
	}
}

func TestUvarintAllocs(t *testing.T) {
	var buf []byte
	for i := 0; i < 512; i++ {
		buf = AppendUvarint(buf, uint64(i*i))
	}
	var sink uint64
	got := testing.AllocsPerRun(20, func() {
		rest := buf
		for len(rest) > 0 {
			v, n, err := Uvarint(rest)
			if err != nil {
				t.Fatal(err)
			}
			sink += v
			rest = rest[n:]
		}
	})
	if got != 0 {
		t.Errorf("Uvarint scan allocates %.0f objects/run, want 0", got)
	}
	_ = sink
}
