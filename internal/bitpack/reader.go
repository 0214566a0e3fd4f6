package bitpack

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader walks a little-endian image with bounds checking. It is the one
// reader of every persisted image outside the TOC batch and the gradient
// codec: checkpoints, store manifests, DEN and the reference schemes'
// images. Its error is sticky: the first read past the end, or the first
// count the bytes left cannot back, sets Err, and every later read
// returns zero values, so a decoder checks Err once, after the reads that
// size nothing.
//
// No read allocates more than the bytes it consumes can fill: U32s and
// F64s take their bytes before they make their slice, and Count refuses
// a record count that the bytes left cannot hold, which is what bounds a
// slice of records before the records are read.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader at the start of buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Take returns the next n bytes, aliasing the image, or nil if fewer
// than n are left.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("truncated at byte %d: %d bytes left, need %d", r.off, len(r.buf)-r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// zeros stands in for the bytes of a fixed-size read past the end.
var zeros [8]byte

// fixed takes n ≤ 8 bytes, or returns n zero bytes once the image is
// short.
func (r *Reader) fixed(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8 reads one byte.
func (r *Reader) U8() byte { return r.fixed(1)[0] }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// Str reads a string behind a uint16 length.
func (r *Reader) Str() string { return string(r.Take(int(r.U16()))) }

// words takes n words of size bytes each, refusing n before it is
// multiplied, so no claim can wrap into a small length.
func (r *Reader) words(n, size int) []byte {
	if r.err == nil && (n < 0 || n > (len(r.buf)-r.off)/size) {
		r.err = fmt.Errorf("truncated at byte %d: %d bytes left, need %d words of %d", r.off, len(r.buf)-r.off, n, size)
	}
	return r.Take(n * size)
}

// U32s reads n little-endian uint32s into a new slice.
func (r *Reader) U32s(n int) []uint32 {
	b := r.words(n, 4)
	if b == nil {
		return nil
	}
	out := make([]uint32, n)
	unpack32(out, b)
	return out
}

// F64s reads n little-endian IEEE-754 doubles into a new slice.
func (r *Reader) F64s(n int) []float64 {
	b := r.words(n, 8)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for dst := out; len(dst) >= 1 && len(b) >= 8; dst, b = dst[1:], b[8:] {
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return out
}

// Array reads a bit-packed array written by Array.AppendTo; its payload
// aliases the image.
func (r *Reader) Array() Array {
	if r.err != nil {
		return Array{}
	}
	a, rest, err := ReadArray(r.buf[r.off:])
	if err != nil {
		r.err = err
		return Array{}
	}
	r.off = len(r.buf) - len(rest)
	return a
}

// Count reads a uint32 record count and refuses one the bytes left cannot
// hold at minLen bytes a record, so no slice is ever sized by an
// unchecked word. A record shorter than a byte still counts as one, so a
// count of empty records is bounded too.
func (r *Reader) Count(what string, minLen int) int {
	n := r.U32()
	if left := len(r.buf) - r.off; r.err == nil && uint64(n) > uint64(left/max(minLen, 1)) {
		r.err = fmt.Errorf("claims %d %s in %d bytes", n, what, left)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Err returns the first error the reads met, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns Err, or an error if the image has bytes left over: an
// image is read whole or refused.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// AppendU32s appends vals as little-endian uint32s, the layout U32s reads.
func AppendU32s(dst []byte, vals []uint32) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// AppendF64s appends vals as little-endian IEEE-754 doubles, the layout
// F64s reads.
func AppendF64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}
