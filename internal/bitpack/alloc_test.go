package bitpack

import (
	"testing"
)

// The decode hot paths allocate nothing: Get is pure bit arithmetic,
// AppendTo into a sized buffer reuses it, and the varint reader walks
// the input in place. These pins keep the per-batch decode loops
// allocation-free as the kernels above them assume.

func TestGetAllocs(t *testing.T) {
	vals := make([]uint32, 4096)
	for i := range vals {
		vals[i] = uint32(i * 7 % 1000)
	}
	a := Pack(vals)
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
	a := Pack(vals)
	buf := make([]byte, 0, a.EncodedSize())
	got := testing.AllocsPerRun(20, func() {
		buf = a.AppendTo(buf[:0])
	})
	if got != 0 {
		t.Errorf("Array.AppendTo into a sized buffer allocates %.0f objects/run, want 0", got)
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

// Looking up a value the dictionary already holds probes the table
// BuildValueIndex built and allocates nothing.
func TestValueIndexLookupAllocs(t *testing.T) {
	vals := make([]float64, 2048)
	for i := range vals {
		vals[i] = float64(i % 37)
	}
	vi := BuildValueIndex(vals)
	var sink uint32
	got := testing.AllocsPerRun(20, func() {
		for _, v := range vals {
			sink += vi.Intern(v)
		}
	})
	if got != 0 {
		t.Errorf("ValueIndex.Intern of known values allocates %.0f objects/run, want 0", got)
	}
	_ = sink
}
