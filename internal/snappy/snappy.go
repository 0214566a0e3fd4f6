// Package snappy is a from-scratch implementation of the Snappy block
// format (the raw format, without framing), used as the "Snappy" general
// compression baseline of the paper's §5 evaluation. The Go standard
// library has no Snappy codec, so this package provides one: an LZ77
// compressor with a hash-table match finder and the standard tag-byte
// encoding of literals and copies.
//
// Block format summary:
//
//	preamble: uvarint length of the uncompressed data
//	elements: tag byte, low 2 bits select the element kind
//	  00 literal  — length 1..60 inline in tag, 61..64 -> 1..4 extra bytes
//	  01 copy1    — length 4..11, 11-bit offset (3 bits in tag + 1 byte)
//	  10 copy2    — length 1..64, 16-bit little-endian offset
//	  11 copy4    — length 1..64, 32-bit little-endian offset
package snappy

import (
	"encoding/binary"
	"errors"
)

// ErrCorrupt is returned by Decode when the input is not valid Snappy data.
var ErrCorrupt = errors.New("snappy: corrupt input")

// ErrTooLarge is returned when the decoded length exceeds what this
// implementation is willing to allocate.
var ErrTooLarge = errors.New("snappy: decoded block is too large")

const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03

	// maxBlockSize keeps every match offset within 16 bits, so the encoder
	// never needs tagCopy4 (the decoder still accepts it).
	maxBlockSize = 65536

	// decode length guard: 1 GiB is far above anything this repo produces.
	maxDecodedLen = 1 << 30

	// match finder parameters
	tableBits = 14
	tableSize = 1 << tableBits

	minMatchLen = 4
)

// maxEncodedLen returns an upper bound on the size of Encode output for an
// input of n bytes.
func maxEncodedLen(n int) int {
	// worst case: uvarint preamble + input emitted as literals with one tag
	// byte + length bytes per 2^24 chunk; 32 + n + n/6 is a safe bound (the
	// canonical implementation uses the same shape).
	return 32 + n + n/6
}

// Encode compresses src using the Snappy block format and returns the
// compressed bytes.
func Encode(src []byte) []byte {
	dst := make([]byte, 0, maxEncodedLen(len(src)))
	dst = appendUvarint(dst, uint64(len(src)))
	for len(src) > 0 {
		block := src
		if len(block) > maxBlockSize {
			block = block[:maxBlockSize]
		}
		src = src[len(block):]
		dst = encodeBlock(dst, block)
	}
	return dst
}

func hash4(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> (32 - tableBits)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// encodeBlock compresses one block (≤ 64 KiB) into dst. Match offsets are
// local to the block, so they always fit in 16 bits.
func encodeBlock(dst, src []byte) []byte {
	if len(src) < minMatchLen+4 {
		return emitLiteral(dst, src)
	}
	var table [tableSize]int32
	for i := range table {
		table[i] = -1
	}

	litStart := 0 // start of pending literal run
	s := 0
	// sLimit leaves room so load32 never reads past the end.
	sLimit := len(src) - minMatchLen
	for s < sLimit {
		h := hash4(load32(src, s))
		cand := table[h]
		table[h] = int32(s)
		if cand < 0 || load32(src, int(cand)) != load32(src, s) {
			s++
			continue
		}
		// Found a match at cand. Emit pending literals first.
		if litStart < s {
			dst = emitLiteral(dst, src[litStart:s])
		}
		// Extend the match forward.
		matchLen := minMatchLen
		for s+matchLen < len(src) && src[int(cand)+matchLen] == src[s+matchLen] {
			matchLen++
		}
		dst = emitCopy(dst, s-int(cand), matchLen)
		s += matchLen
		litStart = s
		// Seed the table with a position inside the match so long runs chain.
		if s < sLimit {
			table[hash4(load32(src, s-1))] = int32(s - 1)
		}
	}
	if litStart < len(src) {
		dst = emitLiteral(dst, src[litStart:])
	}
	return dst
}

func emitLiteral(dst, lit []byte) []byte {
	n := len(lit) - 1
	switch {
	case n < 0:
		return dst
	case n < 60:
		dst = append(dst, byte(n)<<2|tagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|tagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|tagLiteral, byte(n), byte(n>>8))
	case n < 1<<24:
		dst = append(dst, 62<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16))
	default:
		dst = append(dst, 63<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return append(dst, lit...)
}

// emitCopy emits one or more copy elements covering length bytes at the
// given offset (1 ≤ offset < 65536).
func emitCopy(dst []byte, offset, length int) []byte {
	for length >= 68 {
		dst = append(dst, 63<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	if length > 64 {
		// Emit 60 so the remainder stays ≥ 4 (keeps copy1 eligible).
		dst = append(dst, 59<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 60
	}
	if length >= 4 && length <= 11 && offset < 2048 {
		dst = append(dst,
			byte(offset>>8)<<5|byte(length-4)<<2|tagCopy1,
			byte(offset))
		return dst
	}
	return append(dst, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
}

// DecodedLen returns the declared uncompressed length of a Snappy block.
func DecodedLen(src []byte) (int, error) {
	n, c, err := readUvarint(src)
	if err != nil {
		return 0, ErrCorrupt
	}
	if n > maxDecodedLen {
		return 0, ErrTooLarge
	}
	_ = c
	return int(n), nil
}

// Decode decompresses a Snappy block and returns the original bytes.
func Decode(src []byte) ([]byte, error) {
	n, c, err := readUvarint(src)
	if err != nil {
		return nil, ErrCorrupt
	}
	if n > maxDecodedLen {
		return nil, ErrTooLarge
	}
	src = src[c:]
	// No element writes more than 64 bytes from 3 (a copy2), so a length
	// the stream cannot reach is refused before it sizes dst.
	if 3*n > 64*uint64(len(src)) {
		return nil, ErrCorrupt
	}
	dst := make([]byte, n)
	d := 0
	for len(src) > 0 {
		tag := src[0]
		var litLen, copyLen, offset int
		switch tag & 3 {
		case tagLiteral:
			l := int(tag >> 2)
			switch {
			case l < 60:
				litLen = l + 1
				src = src[1:]
			case l == 60:
				if len(src) < 2 {
					return nil, ErrCorrupt
				}
				litLen = int(src[1]) + 1
				src = src[2:]
			case l == 61:
				if len(src) < 3 {
					return nil, ErrCorrupt
				}
				litLen = int(binary.LittleEndian.Uint16(src[1:])) + 1
				src = src[3:]
			case l == 62:
				if len(src) < 4 {
					return nil, ErrCorrupt
				}
				litLen = int(src[1]) | int(src[2])<<8 | int(src[3])<<16
				litLen++
				src = src[4:]
			default: // 63
				if len(src) < 5 {
					return nil, ErrCorrupt
				}
				v := binary.LittleEndian.Uint32(src[1:])
				if v > maxDecodedLen {
					return nil, ErrCorrupt
				}
				litLen = int(v) + 1
				src = src[5:]
			}
			if litLen > len(src) || d+litLen > len(dst) {
				return nil, ErrCorrupt
			}
			copy(dst[d:], src[:litLen])
			d += litLen
			src = src[litLen:]
			continue

		case tagCopy1:
			if len(src) < 2 {
				return nil, ErrCorrupt
			}
			copyLen = 4 + int(tag>>2)&0x7
			offset = int(tag&0xe0)<<3 | int(src[1])
			src = src[2:]

		case tagCopy2:
			if len(src) < 3 {
				return nil, ErrCorrupt
			}
			copyLen = 1 + int(tag>>2)
			offset = int(binary.LittleEndian.Uint16(src[1:]))
			src = src[3:]

		default: // tagCopy4
			if len(src) < 5 {
				return nil, ErrCorrupt
			}
			copyLen = 1 + int(tag>>2)
			v := binary.LittleEndian.Uint32(src[1:])
			if v > maxDecodedLen {
				return nil, ErrCorrupt
			}
			offset = int(v)
			src = src[5:]
		}
		if offset <= 0 || offset > d || d+copyLen > len(dst) {
			return nil, ErrCorrupt
		}
		// Byte-at-a-time copy: offsets smaller than the length deliberately
		// replicate the overlapping region (RLE-style runs).
		for i := 0; i < copyLen; i++ {
			dst[d] = dst[d-offset]
			d++
		}
	}
	if d != len(dst) {
		return nil, ErrCorrupt
	}
	return dst, nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func readUvarint(buf []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, b := range buf {
		if i == 10 {
			return 0, 0, ErrCorrupt
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, ErrCorrupt
}
