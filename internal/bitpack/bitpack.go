// Package bitpack implements the physical-encoding primitives of §3.2 of the
// paper: bit packing of arrays of small non-negative integers and value
// indexing (dictionary encoding) of float64 values.
//
// Per the paper, each non-negative integer in an array is stored using
// ceil((floor(log2 max)+1)/8) bytes — i.e. 1, 2, 3 (uint24) or 4 bytes — and
// every encoded array carries a header recording the number of integers and
// the number of bytes per integer. §4.1.1 describes accessing a packed
// integer by seeking to its position and casting the bytes, masking the
// leading byte for uint24; Get does exactly that.
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

// Pack encodes vals into a bit-packed array.
func Pack(vals []uint32) *Array {
	var max uint32
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	w := BytesPerInt(max)
	a := &Array{n: len(vals), width: w, data: make([]byte, len(vals)*w)}
	for i, v := range vals {
		a.put(i, v)
	}
	return a
}

func (a *Array) put(i int, v uint32) {
	off := i * a.width
	switch a.width {
	case 1:
		a.data[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(a.data[off:], uint16(v))
	case 3:
		a.data[off] = byte(v)
		a.data[off+1] = byte(v >> 8)
		a.data[off+2] = byte(v >> 16)
	default:
		binary.LittleEndian.PutUint32(a.data[off:], v)
	}
}

// Len returns the number of integers in the array.
func (a *Array) Len() int { return a.n }

// Width returns the number of bytes used per integer.
func (a *Array) Width() int { return a.width }

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
// nothing. core's Deserialize decodes every packed section through it.
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

// unpack8 decodes width-1 values: one 8-byte load yields 8 of them. All
// four unpack helpers advance by re-slicing dst and src so every length
// test directly proves the accesses behind it and the compiler drops
// every bounds check in the bodies.
func unpack8(dst []uint32, src []byte) {
	for len(dst) >= 8 && len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		dst[0] = uint32(x) & 0xff
		dst[1] = uint32(x>>8) & 0xff
		dst[2] = uint32(x>>16) & 0xff
		dst[3] = uint32(x>>24) & 0xff
		dst[4] = uint32(x>>32) & 0xff
		dst[5] = uint32(x>>40) & 0xff
		dst[6] = uint32(x>>48) & 0xff
		dst[7] = uint32(x >> 56)
		dst = dst[8:]
		src = src[8:]
	}
	for len(dst) >= 1 && len(src) >= 1 {
		dst[0] = uint32(src[0])
		dst = dst[1:]
		src = src[1:]
	}
}

// unpack16 decodes width-2 values: one 8-byte load yields 4.
func unpack16(dst []uint32, src []byte) {
	for len(dst) >= 4 && len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		dst[0] = uint32(x) & 0xffff
		dst[1] = uint32(x>>16) & 0xffff
		dst[2] = uint32(x>>32) & 0xffff
		dst[3] = uint32(x >> 48)
		dst = dst[4:]
		src = src[8:]
	}
	for len(dst) >= 1 && len(src) >= 2 {
		dst[0] = uint32(binary.LittleEndian.Uint16(src))
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

// EncodedSize returns the number of bytes AppendTo writes (header + payload).
func (a *Array) EncodedSize() int { return headerSize + len(a.data) }

// AppendTo appends the encoded array (header + payload) to dst.
func (a *Array) AppendTo(dst []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(a.n))
	hdr[4] = byte(a.width)
	dst = append(dst, hdr[:]...)
	return append(dst, a.data...)
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
