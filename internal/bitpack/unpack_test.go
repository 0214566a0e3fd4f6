package bitpack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// The word-at-a-time decoders must be bit-for-bit the §4.1.1 access path:
// UnpackRange against Get for every width, with lengths chosen so the
// word loop runs zero, one, and several times and every tail shape
// shorter than one 8-byte load is exercised.

// unpackWidthValues returns values whose maximum forces the given packed
// width, mixing magnitudes around the 1-, 7-, 8- and 32-bit boundaries.
func unpackWidthValues(width, n int) []uint32 {
	max := map[int]uint32{1: 0xff, 2: 0xffff, 3: 0xffffff, 4: 0xffffffff}[width]
	vals := make([]uint32, n)
	for i := range vals {
		switch i % 5 {
		case 0:
			vals[i] = uint32(i) & 1 // 1-bit
		case 1:
			vals[i] = uint32(i*13) & 0x7f // 7-bit
		case 2:
			vals[i] = uint32(i*29) & 0xff & max // 8-bit
		case 3:
			vals[i] = uint32(i*0x9e3779b9) & max // up to 32-bit
		default:
			vals[i] = max - uint32(i)%7
		}
	}
	if n > 0 {
		vals[0] = max // pin the width even for short arrays
	}
	return vals
}

func TestUnpackRangeMatchesGet(t *testing.T) {
	for width := 1; width <= 4; width++ {
		// 0..17 covers empty, tail-only (shorter than one 8-byte word),
		// exactly one word, and word-plus-tail for every width.
		for n := 0; n <= 17; n++ {
			vals := unpackWidthValues(width, n)
			a := Pack(vals)
			if n > 0 && a.width != width {
				t.Fatalf("width %d n %d: packed width %d", width, n, a.width)
			}
			full := a.Unpack()
			if len(full) != n {
				t.Fatalf("width %d n %d: Unpack len %d", width, n, len(full))
			}
			for i, v := range full {
				if g := a.Get(i); v != g {
					t.Fatalf("width %d n %d: Unpack[%d] = %d, Get = %d", width, n, i, v, g)
				}
			}
			dst := make([]uint32, n)
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					buf := dst[:hi-lo]
					for i := range buf {
						buf[i] = 0xdeadbeef
					}
					a.UnpackRange(buf, lo, hi)
					for i := range buf {
						if g := a.Get(lo + i); buf[i] != g {
							t.Fatalf("width %d n %d: UnpackRange[%d,%d)[%d] = %d, Get(%d) = %d",
								width, n, lo, hi, i, buf[i], lo+i, g)
						}
					}
				}
			}
		}
	}
}

// Unpack16 decodes Get's values into 16 bits at every width — widths 3
// and 4 being an array packed wider than its values need — and reports a
// value that does not fit, wherever in the array it is.
func TestUnpack16MatchesGet(t *testing.T) {
	for width := 1; width <= 4; width++ {
		for _, n := range []int{0, 1, 7, 8, 17, 255, 256, 257, 600} {
			vals := make([]uint32, n)
			for i := range vals {
				vals[i] = uint32(i*0x9e37) & 0xffff
			}
			img := binary.LittleEndian.AppendUint32(nil, uint32(n))
			img = append(img, byte(width))
			for _, v := range vals {
				img = append(img, byte(v), byte(v>>8), 0, 0)[:len(img)+width]
			}
			a, _, err := ReadArray(img)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]uint16, n+1)
			dst[n] = 0xbeef
			if !a.Unpack16(dst) {
				t.Fatalf("width %d n %d: Unpack16 reports a value wider than 16 bits", width, n)
			}
			for i, v := range dst[:n] {
				if want := a.Get(i); uint32(v) != want {
					t.Fatalf("width %d n %d: Unpack16[%d] = %d, Get = %d", width, n, i, v, want)
				}
			}
			if dst[n] != 0xbeef {
				t.Fatalf("width %d n %d: Unpack16 wrote past Len()", width, n)
			}
			if width < 3 || n == 0 {
				continue
			}
			for _, at := range []int{0, n / 2, n - 1} {
				wide := append([]byte(nil), img...)
				wide[5+at*width+2] = 1 // element at is 1<<16 more
				a, _, _ := ReadArray(wide)
				if a.Unpack16(dst) {
					t.Fatalf("width %d n %d: Unpack16 missed a 17-bit value at %d", width, n, at)
				}
			}
		}
	}
}

func TestUnpackRangeBounds(t *testing.T) {
	a := Pack([]uint32{1, 2, 3})
	for _, tc := range []struct{ lo, hi, dst int }{
		{-1, 2, 4}, {0, 4, 4}, {2, 1, 4}, {0, 3, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UnpackRange(dst[%d], %d, %d) should panic", tc.dst, tc.lo, tc.hi)
				}
			}()
			a.UnpackRange(make([]uint32, tc.dst), tc.lo, tc.hi)
		}()
	}
}

func TestUnpackRangeAllocs(t *testing.T) {
	for width := 1; width <= 4; width++ {
		a := Pack(unpackWidthValues(width, 4096))
		dst := make([]uint32, a.Len())
		got := testing.AllocsPerRun(20, func() {
			a.UnpackRange(dst, 0, a.Len())
		})
		if got != 0 {
			t.Errorf("width %d: UnpackRange allocates %.0f objects/run, want 0", width, got)
		}
		dst16 := make([]uint16, a.Len())
		if got := testing.AllocsPerRun(20, func() { a.Unpack16(dst16) }); got != 0 {
			t.Errorf("width %d: Unpack16 allocates %.0f objects/run, want 0", width, got)
		}
	}
}

// FuzzUnpackRange drives UnpackRange with an arbitrary width, payload,
// range [lo,hi) and dst length (hi-lo+slack). The contract: a range
// inside the array with a dst that holds it decodes exactly Get's values,
// writes nothing past them and allocates nothing; an out-of-range range,
// or else a short dst, panics with its documented message; nothing else
// panics. The array comes from ReadArray over the payload, so every width
// meets arbitrary bytes. Seed corpus lives in testdata/fuzz/FuzzUnpackRange.
func FuzzUnpackRange(f *testing.F) {
	f.Add(uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, int16(1), int16(7), int8(0))
	f.Fuzz(func(t *testing.T, width uint8, payload []byte, lo, hi int16, slack int8) {
		w := 1 + int(width)%4
		n := len(payload) / w
		img := binary.LittleEndian.AppendUint32(nil, uint32(n))
		img = append(append(img, byte(w)), payload[:n*w]...)
		a, _, err := ReadArray(img)
		if err != nil {
			t.Fatalf("ReadArray of a %d×%d array: %v", n, w, err)
		}
		l, h := int(lo), int(hi)
		dst := make([]uint32, max(0, h-l+int(slack)))
		const sentinel = 0xdeadbeef
		for i := range dst {
			dst[i] = sentinel
		}
		var want string
		switch {
		case l < 0 || h > n || l > h:
			want = fmt.Sprintf("bitpack: UnpackRange [%d,%d) out of range %d", l, h, n)
		case len(dst) < h-l:
			want = fmt.Sprintf("bitpack: UnpackRange dst holds %d, need %d", len(dst), h-l)
		}
		got := func() (msg any) {
			defer func() { msg = recover() }()
			a.UnpackRange(dst, l, h)
			return nil
		}()
		if want != "" {
			if got != want {
				t.Fatalf("UnpackRange(dst[%d], %d, %d) of %d: panic %v, want %q", len(dst), l, h, n, got, want)
			}
			return
		}
		if got != nil {
			t.Fatalf("UnpackRange(dst[%d], %d, %d) of %d: unexpected panic %v", len(dst), l, h, n, got)
		}
		for i := range dst {
			if i < h-l && dst[i] != a.Get(l+i) {
				t.Fatalf("width %d [%d,%d): dst[%d] = %d, Get(%d) = %d", w, l, h, i, dst[i], l+i, a.Get(l+i))
			}
			if i >= h-l && dst[i] != sentinel {
				t.Fatalf("width %d [%d,%d): wrote dst[%d] past the range", w, l, h, i)
			}
		}
		if allocs := testing.AllocsPerRun(1, func() { a.UnpackRange(dst, l, h) }); allocs != 0 {
			t.Fatalf("width %d [%d,%d): %.0f allocations, want 0", w, l, h, allocs)
		}
	})
}

func TestUvarintOverflow(t *testing.T) {
	// 9 continuation bytes put the 10th byte at bit 63: only 0x00 and
	// 0x01 payloads fit a uint64 there.
	pre := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}
	if v, n, err := Uvarint(append(pre[:9:9], 0x01)); err != nil || v != 1<<63 || n != 10 {
		t.Fatalf("10-byte 1<<63: got %d (n=%d, err=%v)", v, n, err)
	}
	for _, last := range []byte{0x02, 0x03, 0x7f} {
		_, _, err := Uvarint(append(pre[:9:9], last))
		if !errors.Is(err, ErrVarintOverflow) {
			t.Errorf("10th byte 0x%02x: err = %v, want ErrVarintOverflow", last, err)
		}
	}
	// A continuation bit on the 10th byte is "too long", not overflow,
	// even when its payload bits would fit.
	if _, _, err := Uvarint(append(pre[:9:9], 0x81)); err == nil || errors.Is(err, ErrVarintOverflow) {
		t.Errorf("continuation in 10th byte: err = %v, want a too-long error", err)
	}
}

// FuzzUvarint drives adversarial bytes through the varint decoder. The
// contract: Uvarint either errors or returns (v, n) such that re-encoding
// v canonically consumes at most n bytes and decoding is stable — and it
// never panics, never reads past the terminator, and never accepts an
// encoding whose payload bits exceed 64 (the overflow seed below is the
// regression case for ErrVarintOverflow).
func FuzzUvarint(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x80})
	f.Add([]byte{0xac, 0x02})
	f.Add(AppendUvarint(nil, 1<<63+9))
	f.Add(AppendUvarint(nil, ^uint64(0)))
	// Non-canonical but in-range: 128 with a redundant byte.
	f.Add([]byte{0x80, 0x81, 0x00})
	// Overflowing 10-byte encoding: the 10th byte carries bits past 64.
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	// 10 continuation bytes: too long no matter the payload.
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00})

	f.Fuzz(func(t *testing.T, buf []byte) {
		v, n, err := Uvarint(buf)
		if err != nil {
			return
		}
		if n < 1 || n > 10 || n > len(buf) {
			t.Fatalf("Uvarint(%x) consumed %d of %d bytes", buf, n, len(buf))
		}
		// The terminator must be inside the consumed bytes and every
		// consumed byte before it must be a continuation.
		for i := 0; i < n-1; i++ {
			if buf[i] < 0x80 {
				t.Fatalf("Uvarint(%x) consumed past terminator at %d", buf, i)
			}
		}
		if buf[n-1] >= 0x80 {
			t.Fatalf("Uvarint(%x) stopped on continuation byte", buf)
		}
		// Canonical re-encoding is never longer than what was consumed,
		// and decoding it gives the value back.
		enc := AppendUvarint(nil, v)
		if len(enc) > n {
			t.Fatalf("Uvarint(%x) = %d: canonical form %x longer than consumed %d", buf, v, enc, n)
		}
		v2, n2, err := Uvarint(enc)
		if err != nil || v2 != v || n2 != len(enc) {
			t.Fatalf("re-decode of %x: got %d,%d,%v want %d", enc, v2, n2, err, v)
		}
	})
}
