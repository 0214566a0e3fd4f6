package bitpack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Varint encoding — the paper's §3.2 names Varint [12] as a more advanced
// physical encoding and leaves it as future work; it is provided here as an
// optional extension (see the VarintArrays ablation bench in bench_test.go).
// The encoding is the standard LEB128 base-128 scheme used by protocol
// buffers: 7 value bits per byte, high bit set on continuation bytes.
//
// Decoding is word-at-a-time: when 8 input bytes are available, one
// little-endian load finds the terminator byte (the first byte with its
// high bit clear) via a single mask-and-count, then compacts the 7-bit
// payload groups with three branchless SWAR folds. Every varint of up to
// 8 bytes — all uint32 payloads and 56-bit values — decodes without a
// per-byte loop; longer or buffer-tail varints take the byte loop below.

// ErrVarintOverflow reports a 10-byte varint whose final byte carries
// payload bits beyond the 64th — an encoding no uint64 can round-trip to,
// which a canonical encoder never emits. AppendUvarint writes at most one
// payload bit (0 or 1) into the 10th byte, so anything larger there is
// either corruption or an attempt to smuggle a >64-bit value.
var ErrVarintOverflow = errors.New("bitpack: varint overflows 64 bits")

// AppendUvarint appends the varint encoding of v to dst.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

const (
	varintCont = 0x8080808080808080 // the 8 continuation bits of a word
	varintMask = 0x7f7f7f7f7f7f7f7f // the 8 payload groups of a word
)

// Uvarint decodes a varint from the front of buf, returning the value and
// the number of bytes consumed. It returns an error on truncated input,
// on encodings longer than 10 bytes, and (as ErrVarintOverflow) on
// 10-byte encodings whose last byte carries bits beyond the 64-bit range.
func Uvarint(buf []byte) (uint64, int, error) {
	if len(buf) >= 8 {
		x := binary.LittleEndian.Uint64(buf)
		if nc := ^x & varintCont; nc != 0 {
			// Terminator inside the word: byte index n, so n+1 bytes of
			// payload. Mask the bytes past it, drop the continuation
			// bits, and fold the 7-bit groups together — 14-bit groups
			// on 16-bit lanes, then 28 on 32, then the full 56 bits.
			n := uint(bits.TrailingZeros64(nc)) >> 3
			x &= ^uint64(0) >> (56 - 8*n)
			x &= varintMask
			x = (x & 0x007f007f007f007f) | (x&0x7f007f007f007f00)>>1
			x = (x & 0x00003fff00003fff) | (x&0x3fff00003fff0000)>>2
			x = (x & 0x000000000fffffff) | (x&0x0fffffff00000000)>>4
			return x, int(n) + 1, nil
		}
		// 8 continuation bytes: the value spills into bytes 9 and 10;
		// fall through to the byte loop, which handles the tail checks.
	}
	var v uint64
	var shift uint
	for i, b := range buf {
		if i == 9 {
			// The 10th byte holds bit 63 only: a continuation bit here
			// would demand an 11th byte no 64-bit encoder writes, and
			// payload bits above 0x01 would shift past the 64th bit.
			if b&0x7f > 1 {
				return 0, 0, ErrVarintOverflow
			}
			if b >= 0x80 {
				return 0, 0, fmt.Errorf("bitpack: varint too long")
			}
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, fmt.Errorf("bitpack: truncated varint")
}

// PackVarint encodes vals using varint coding with a count prefix.
func PackVarint(vals []uint32) []byte {
	out := AppendUvarint(nil, uint64(len(vals)))
	for _, v := range vals {
		out = AppendUvarint(out, uint64(v))
	}
	return out
}
