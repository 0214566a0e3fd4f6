package dist

import (
	"hash/crc32"
	"math/rand"
	"testing"

	"toc/internal/bitpack"
)

// The error-feedback wrapper is shared by TopK and DSQ; its frames and
// residuals are pinned to values captured at the commit before the two
// private copies were folded into one: for a fixed seed-1 gradient, the
// CRC32 of two successive uplink payloads (the second folds the first's
// residual in), of the residual they leave, of a downlink payload and of
// the prev image it advances.
func TestGoldenPayloads(t *testing.T) {
	const np = 97
	rng := rand.New(rand.NewSource(1))
	grad, params := make([]float64, np), make([]float64, np)
	for i := range grad {
		grad[i], params[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	floatsCRC := func(v []float64) uint32 { return crc32.ChecksumIEEE(bitpack.AppendF64s(nil, v)) }
	type golden struct{ up1, up2, residual, down, prev uint32 }
	for _, tc := range []struct {
		codec GradCodec
		want  golden
	}{
		{&TopK{ratio: 0.1}, golden{0x2bbc149a, 0x59c4ca1f, 0x6d4c36a9, 0x92cfba11, 0xc905361b}},
		{&DSQ{bits: 4, seed: 1}, golden{0x68d175f1, 0x776e3d6b, 0x0cdf4aa2, 0x88d7425e, 0x657a0d57}},
		{&DSQ{bits: 8, seed: 1}, golden{0xd86ca3dc, 0x7653e253, 0x55f11023, 0x59aa002d, 0x0f5bdae9}},
	} {
		c := tc.codec
		var got golden
		got.up1 = crc32.ChecksumIEEE(c.EncodeGrad(grad, nil))
		got.up2 = crc32.ChecksumIEEE(c.EncodeGrad(grad, nil))
		switch c := c.(type) {
		case *TopK:
			got.residual = floatsCRC(c.gradRes)
		case *DSQ:
			got.residual = floatsCRC(c.gradRes)
		}
		prev := make([]float64, np)
		got.down = crc32.ChecksumIEEE(c.EncodeSnap(params, prev, nil))
		got.prev = floatsCRC(prev)
		if got != tc.want {
			t.Errorf("%s: got %#v, want %#v", c.Name(), got, tc.want)
		}
	}
}
