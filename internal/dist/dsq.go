package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"toc/internal/bitpack"
)

// DSQ is DoubleSqueeze-style error-compensated quantization: every
// payload carries all coordinates of residual+input, each stochastically
// rounded to a signed bits-wide integer against the vector's max-abs
// scale, and the rounding error stays in the residual. "Double" is the
// second compression pass: the server compresses its downlink deltas
// with the same scheme and its own per-trainer residual, so both
// directions are error-compensated. Quantized levels travel bitpacked
// (nibbles at ≤4 bits, width-1 bitpack arrays above); one float64 scale
// per payload.
type DSQ struct {
	bits int
	seed int64

	// rng drives stochastic rounding; seeded, so trajectories are
	// reproducible (detcheck allows seeded streams in this package).
	rng *rand.Rand

	feedback
	q []uint32 // level scratch
}

// Name implements GradCodec.
func (c *DSQ) Name() string { return fmt.Sprintf("dsq:%d", c.bits) }

// Clone implements GradCodec; the clone replays the same rounding
// stream, which costs nothing in accuracy and keeps runs reproducible.
func (c *DSQ) Clone() GradCodec { return &DSQ{bits: c.bits, seed: c.seed} }

// levels is the positive quantization range: q ∈ [-levels, +levels].
func dsqLevels(bits int) int { return 1<<(bits-1) - 1 }

// encode appends the quantized image of acc and subtracts what it
// carries, leaving acc as the new residual.
func (c *DSQ) encode(acc []float64, dst []byte) []byte {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.seed))
	}
	np := len(acc)
	m := float64(dsqLevels(c.bits))
	scale := 0.0
	for _, v := range acc {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	dst = header(dst, tagDSQ, np)
	dst = append(dst, byte(c.bits))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(scale))
	if cap(c.q) < np {
		c.q = make([]uint32, np)
	}
	q := c.q[:np]
	for i, v := range acc {
		lv := 0.0
		if scale > 0 {
			x := v / scale * m
			lv = math.Floor(x)
			// Stochastic rounding: unbiased, and the rng advances once
			// per coordinate regardless of the draw, so the stream
			// position depends only on how many coordinates were encoded.
			if c.rng.Float64() < x-lv {
				lv++
			}
			if lv > m {
				lv = m
			}
			if lv < -m {
				lv = -m
			}
		}
		q[i] = uint32(int(lv) + dsqLevels(c.bits))
		acc[i] = v - lv/m*scale
	}
	if c.bits <= 4 {
		dst = appendNibbles(dst, q)
	} else {
		dst = bitpack.AppendArray(dst, q, uint32(2*dsqLevels(c.bits))) // q ≤ 2·levels
	}
	return dst
}

// appendNibbles packs one value per 4-bit nibble, low nibble first.
func appendNibbles(dst []byte, q []uint32) []byte {
	for i := 0; i < len(q); i += 2 {
		b := byte(q[i] & 0xf)
		if i+1 < len(q) {
			b |= byte(q[i+1]&0xf) << 4
		}
		dst = append(dst, b)
	}
	return dst
}

// decode parses a quantized payload and calls visit with each
// coordinate's dequantized value, validating lengths before allocating.
func (*DSQ) decode(payload []byte, np int, visit func(i int, v float64)) error {
	body, err := readHeader(payload, tagDSQ, np)
	if err != nil {
		return err
	}
	if len(body) < 1+8 {
		return fmt.Errorf("dist: dsq payload truncated")
	}
	bits := int(body[0])
	if bits < 2 || bits > 8 {
		return fmt.Errorf("dist: dsq bits %d out of [2, 8]", bits)
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(body[1:]))
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		return fmt.Errorf("dist: dsq scale %v invalid", scale)
	}
	levels := dsqLevels(bits)
	body = body[9:]
	var get func(i int) uint32
	if bits <= 4 {
		if len(body) != (np+1)/2 {
			return fmt.Errorf("dist: dsq payload has %d level bytes, want %d", len(body), (np+1)/2)
		}
		get = func(i int) uint32 {
			v := uint32(body[i/2])
			if i%2 == 1 {
				v >>= 4
			}
			return v & 0xf
		}
	} else {
		arr, rest, err := bitpack.ReadArray(body)
		if err != nil {
			return fmt.Errorf("dist: dsq levels: %v", err)
		}
		if arr.Len() != np || len(rest) != 0 {
			return fmt.Errorf("dist: dsq payload has %d levels and %d trailing bytes, want %d and 0", arr.Len(), len(rest), np)
		}
		get = arr.Get
	}
	m := float64(levels)
	for i := 0; i < np; i++ {
		v := get(i)
		if v > uint32(2*levels) {
			return fmt.Errorf("dist: dsq level %d exceeds %d", v, 2*levels)
		}
		visit(i, float64(int(v)-levels)/m*scale)
	}
	return nil
}

// The GradCodec surface is the shared error-feedback wrapper around the
// two functions above.

func (c *DSQ) EncodeGrad(grad []float64, dst []byte) []byte { return c.encodeGrad(c, grad, dst) }
func (c *DSQ) DecodeGrad(payload []byte, out []float64) error {
	return decodeGrad(c, payload, out)
}
func (c *DSQ) EncodeSnap(params, prev []float64, dst []byte) []byte {
	return c.encodeSnap(c, params, prev, dst)
}
func (c *DSQ) DecodeSnap(payload []byte, params []float64) error {
	return addPayload(c, payload, params)
}
