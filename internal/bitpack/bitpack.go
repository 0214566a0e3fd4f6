// Package bitpack implements bit packing, the integer half of §3.2 of
// the paper's physical encoding, and the bounds-checked Reader every
// persisted image outside the TOC batch is read through. The float half,
// value indexing, lives in core (IndexValues), on the pooled dictionary
// its encoder interns a first layer's values with.
//
// Per the paper, each non-negative integer in an array is stored using
// ceil((floor(log2 max)+1)/8) bytes — i.e. 1, 2, 3 (uint24) or 4 bytes — and
// every encoded array carries a header recording the number of integers and
// the number of bytes per integer. AppendArray writes that layout and
// AppendPacked the same values without the header, for a format whose
// counts and widths follow from what it has already written. §4.1.1
// describes accessing a packed integer by seeking to its position and
// casting the bytes, masking the leading byte for uint24; Get does
// exactly that.
package bitpack

import (
	"encoding/binary"
	"fmt"
)

// headerSize is the encoded array header: uint32 count + uint8 width.
const headerSize = 5

// BytesPerInt returns the number of bytes bit packing uses per value for
// arrays whose maximum element is max: ceil((floor(log2 max)+1)/8), with the
// paper's convention that an all-zero array still uses one byte per value.
func BytesPerInt(max uint32) int {
	switch {
	case max < 1<<8:
		return 1
	case max < 1<<16:
		return 2
	case max < 1<<24:
		return 3
	default:
		return 4
	}
}

// Array is a bit-packed array of non-negative integers with random access.
// The zero value is an empty array.
type Array struct {
	n     int    // number of integers
	width int    // bytes per integer (1..4)
	data  []byte // n*width payload bytes
}

// Len returns the number of integers in the array.
func (a *Array) Len() int { return a.n }

// Get returns the i-th integer. It is the §4.1.1 access path: seek and cast,
// masking the leading byte to zero in the uint24 case.
func (a *Array) Get(i int) uint32 {
	off := i * a.width
	switch a.width {
	case 1:
		return uint32(a.data[off])
	case 2:
		return uint32(binary.LittleEndian.Uint16(a.data[off:]))
	case 3:
		// copy the three bytes into a uint32 and mask the leading byte.
		return uint32(a.data[off]) | uint32(a.data[off+1])<<8 | uint32(a.data[off+2])<<16
	default:
		return binary.LittleEndian.Uint32(a.data[off:])
	}
}

// Unpack decodes the whole array into a fresh slice.
func (a *Array) Unpack() []uint32 {
	out := make([]uint32, a.n)
	a.UnpackRange(out, 0, a.n)
	return out
}

// UnpackRange decodes elements [lo, hi) into dst, which must hold at
// least hi-lo values. It is the bulk counterpart of Get: instead of one
// seek-and-cast per element it decodes word-at-a-time — each 8-byte
// little-endian load yields 8/4/2/2 values for widths 1/2/3/4 with pure
// shift-and-mask extraction, no per-element branching — and allocates
// nothing. core's Deserialize decodes every packed section through it,
// but a D′ the batch holds 16 bits a code, which it decodes through
// Unpack16.
func (a *Array) UnpackRange(dst []uint32, lo, hi int) {
	if lo < 0 || hi > a.n || lo > hi {
		panic(fmt.Sprintf("bitpack: UnpackRange [%d,%d) out of range %d", lo, hi, a.n))
	}
	n := hi - lo
	if len(dst) < n {
		panic(fmt.Sprintf("bitpack: UnpackRange dst holds %d, need %d", len(dst), n))
	}
	dst = dst[:n]
	src := a.data[lo*a.width : hi*a.width]
	switch a.width {
	case 1:
		unpack8(dst, src)
	case 2:
		unpack16(dst, src)
	case 3:
		unpack24(dst, src)
	default:
		unpack32(dst, src)
	}
}

// Unpack16 decodes the whole array into dst, which must hold Len()
// values, and reports whether every value fits 16 bits. An array of 1-
// or 2-byte values decodes word at a time, as UnpackRange does; a wider
// one (core's SparseLogical D′ is 4 bytes a code) through UnpackRange, a
// stack window at a time, and is narrowed from there.
func (a *Array) Unpack16(dst []uint16) bool {
	if len(dst) < a.n {
		panic(fmt.Sprintf("bitpack: Unpack16 dst holds %d, need %d", len(dst), a.n))
	}
	dst = dst[:a.n]
	switch a.width {
	case 1:
		unpack8(dst, a.data)
		return true
	case 2:
		unpack16(dst, a.data)
		return true
	}
	var over uint32
	var w [256]uint32
	for lo := 0; len(dst) > 0; lo += len(w) {
		c := w[:min(len(w), len(dst))]
		a.UnpackRange(c, lo, lo+len(c))
		for k := 0; k < len(c) && k < len(dst); k++ {
			dst[k] = uint16(c[k])
			over |= c[k] >> 16
		}
		dst = dst[len(c):]
	}
	return over == 0
}

// unpack8 decodes width-1 values: one 8-byte load yields 8 of them. All
// four unpack helpers advance by re-slicing dst and src so every length
// test directly proves the accesses behind it and the compiler drops
// every bounds check in the bodies. The 1- and 2-byte ones write either
// destination width.
func unpack8[T uint16 | uint32](dst []T, src []byte) {
	for len(dst) >= 8 && len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		dst[0] = T(x) & 0xff
		dst[1] = T(x>>8) & 0xff
		dst[2] = T(x>>16) & 0xff
		dst[3] = T(x>>24) & 0xff
		dst[4] = T(x>>32) & 0xff
		dst[5] = T(x>>40) & 0xff
		dst[6] = T(x>>48) & 0xff
		dst[7] = T(x >> 56)
		dst = dst[8:]
		src = src[8:]
	}
	for len(dst) >= 1 && len(src) >= 1 {
		dst[0] = T(src[0])
		dst = dst[1:]
		src = src[1:]
	}
}

// unpack16 decodes width-2 values: one 8-byte load yields 4.
func unpack16[T uint16 | uint32](dst []T, src []byte) {
	for len(dst) >= 4 && len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		dst[0] = T(x) & 0xffff
		dst[1] = T(x>>16) & 0xffff
		dst[2] = T(x>>32) & 0xffff
		dst[3] = T(x >> 48)
		dst = dst[4:]
		src = src[8:]
	}
	for len(dst) >= 1 && len(src) >= 2 {
		dst[0] = T(binary.LittleEndian.Uint16(src))
		dst = dst[1:]
		src = src[2:]
	}
}

// unpack24 decodes width-3 values: one 8-byte load covers two values
// (6 payload bytes) plus a 2-byte read-ahead, so the word loop stops one
// load short of the end and a byte-at-a-time tail finishes.
func unpack24(dst []uint32, src []byte) {
	for len(dst) >= 2 && len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		dst[0] = uint32(x) & 0xffffff
		dst[1] = uint32(x>>24) & 0xffffff
		dst = dst[2:]
		src = src[6:]
	}
	for len(dst) >= 1 && len(src) >= 3 {
		dst[0] = uint32(src[0]) | uint32(src[1])<<8 | uint32(src[2])<<16
		dst = dst[1:]
		src = src[3:]
	}
}

// unpack32 decodes width-4 values: one 8-byte load yields 2.
func unpack32(dst []uint32, src []byte) {
	for len(dst) >= 2 && len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		dst[0] = uint32(x)
		dst[1] = uint32(x >> 32)
		dst = dst[2:]
		src = src[8:]
	}
	for len(dst) >= 1 && len(src) >= 4 {
		dst[0] = binary.LittleEndian.Uint32(src)
		dst = dst[1:]
		src = src[4:]
	}
}

// ArraySize returns the number of bytes AppendArray writes for n values
// whose largest is at most top: the header and n·BytesPerInt(top).
func ArraySize(n int, top uint32) int { return headerSize + n*BytesPerInt(top) }

// AppendArray appends vals to dst as a bit-packed array, the layout
// ReadArray reads: u32 count, u8 bytes per integer, then AppendPacked's
// payload. top is at least every value; the width is BytesPerInt(top),
// so a caller may pack wider than its values need.
func AppendArray[N ~uint16 | ~uint32](dst []byte, vals []N, top uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	return AppendPacked(append(dst, byte(BytesPerInt(top))), vals, top)
}

// AppendPacked appends vals to dst with no header, each value in
// BytesPerInt(top) little-endian bytes, top at least every value, and
// allocates nothing when dst has room. It is the one writer of packed
// integers: the width-2 loop stores four values at once, and every loop
// re-slices its source and destination, so the length tests prove each
// store behind them.
func AppendPacked[N ~uint16 | ~uint32](dst []byte, vals []N, top uint32) []byte {
	width, n, at := BytesPerInt(top), len(vals), len(dst)
	if end := at + width*n; end <= cap(dst) {
		dst = dst[:end] // every byte of body is written below
	} else {
		dst = append(dst, make([]byte, width*n)...)
	}
	body := dst[at:]
	switch width {
	case 1:
		body = body[:n]
		for k, v := range vals {
			body[k] = byte(v)
		}
	case 2: // four values to a store
		for ; len(vals) >= 4 && len(body) >= 8; vals, body = vals[4:], body[8:] {
			binary.LittleEndian.PutUint64(body, uint64(uint16(vals[0]))|uint64(uint16(vals[1]))<<16|
				uint64(uint16(vals[2]))<<32|uint64(uint16(vals[3]))<<48)
		}
		for ; len(vals) > 0 && len(body) >= 2; vals, body = vals[1:], body[2:] {
			binary.LittleEndian.PutUint16(body, uint16(vals[0]))
		}
	case 3:
		for ; len(vals) > 0 && len(body) >= 3; vals, body = vals[1:], body[3:] {
			v := uint32(vals[0])
			body[0], body[1], body[2] = byte(v), byte(v>>8), byte(v>>16)
		}
	default:
		for ; len(vals) > 0 && len(body) >= 4; vals, body = vals[1:], body[4:] {
			binary.LittleEndian.PutUint32(body, uint32(vals[0]))
		}
	}
	return dst
}

// ReadArray decodes an encoded array from the front of buf, returning the
// array and the remaining bytes. The Array is returned by value — its
// header, with a payload that aliases buf — so reading one allocates
// nothing.
func ReadArray(buf []byte) (Array, []byte, error) {
	if len(buf) < headerSize {
		return Array{}, nil, fmt.Errorf("bitpack: truncated header: %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	w := int(buf[4])
	if w < 1 || w > 4 {
		return Array{}, nil, fmt.Errorf("bitpack: invalid width %d", w)
	}
	need := n * w
	rest := buf[headerSize:]
	if len(rest) < need {
		return Array{}, nil, fmt.Errorf("bitpack: truncated payload: have %d, need %d", len(rest), need)
	}
	return Array{n: n, width: w, data: rest[:need:need]}, rest[need:], nil
}
