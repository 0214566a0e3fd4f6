package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"toc/internal/bitpack"
)

// TopK is ScaleCom-style sparsification with error feedback: each
// payload carries only the k = ceil(ratio·NumParams) largest-magnitude
// coordinates of residual+input, and the coordinates it drops stay in
// the residual, so over time everything the gradients contained is
// delivered — the residual plus the payload history sums exactly to the
// input history (the property test pins this). The same scheme
// compresses the downlink as the delta of the parameter image against
// what the trainer last received.
//
// Selection is deterministic: magnitude descending, index ascending on
// ties, so a run is reproducible regardless of sort internals. Indices
// travel bitpacked (internal/bitpack width-minimal arrays), values as
// raw float64.
type TopK struct {
	ratio float64
	feedback
	sel []int // selection scratch
}

// Name implements GradCodec.
func (c *TopK) Name() string { return fmt.Sprintf("topk:%g", c.ratio) }

// Clone implements GradCodec.
func (c *TopK) Clone() GradCodec { return &TopK{ratio: c.ratio} }

// kOf is the payload coordinate budget for an np-wide vector.
func (c *TopK) kOf(np int) int {
	k := int(math.Ceil(c.ratio * float64(np)))
	if k < 1 {
		k = 1
	}
	if k > np {
		k = np
	}
	return k
}

// encode appends the top-k image of acc and zeroes the sent
// coordinates, leaving acc as the new residual.
func (c *TopK) encode(acc []float64, dst []byte) []byte {
	np := len(acc)
	k := c.kOf(np)
	if cap(c.sel) < np {
		c.sel = make([]int, np)
	}
	sel := c.sel[:np]
	for i := range sel {
		sel[i] = i
	}
	sort.Slice(sel, func(a, b int) bool {
		ma, mb := math.Abs(acc[sel[a]]), math.Abs(acc[sel[b]])
		if ma != mb {
			return ma > mb
		}
		return sel[a] < sel[b]
	})
	sel = sel[:k]
	sort.Ints(sel)

	dst = header(dst, tagTopK, np)
	dst = bitpack.AppendUvarint(dst, uint64(k))
	idx := make([]uint32, k)
	for i, j := range sel {
		idx[i] = uint32(j)
	}
	dst = bitpack.Pack(idx).AppendTo(dst)
	for _, j := range sel {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(acc[j]))
		acc[j] = 0
	}
	return dst
}

// decode parses a top-k payload and calls visit for each carried
// coordinate, validating every length before any allocation.
func (*TopK) decode(payload []byte, np int, visit func(i int, v float64)) error {
	body, err := readHeader(payload, tagTopK, np)
	if err != nil {
		return err
	}
	k64, used, err := bitpack.Uvarint(body)
	if err != nil {
		return fmt.Errorf("dist: topk count: %v", err)
	}
	if k64 == 0 || k64 > uint64(np) {
		return fmt.Errorf("dist: topk count %d out of [1, %d]", k64, np)
	}
	k := int(k64)
	arr, rest, err := bitpack.ReadArray(body[used:])
	if err != nil {
		return fmt.Errorf("dist: topk indices: %v", err)
	}
	if arr.Len() != k {
		return fmt.Errorf("dist: topk payload has %d indices, header says %d", arr.Len(), k)
	}
	if len(rest) != 8*k {
		return fmt.Errorf("dist: topk payload has %d value bytes, want %d", len(rest), 8*k)
	}
	for i := 0; i < k; i++ {
		j := arr.Get(i)
		if j >= uint32(np) {
			return fmt.Errorf("dist: topk index %d out of range %d", j, np)
		}
		visit(int(j), math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:])))
	}
	return nil
}

// The GradCodec surface is the shared error-feedback wrapper around the
// two functions above.

func (c *TopK) EncodeGrad(grad []float64, dst []byte) []byte { return c.encodeGrad(c, grad, dst) }
func (c *TopK) ReturnGrad(payload []byte) error              { return c.returnGrad(c, payload) }
func (c *TopK) DecodeGrad(payload []byte, out []float64) error {
	return decodeGrad(c, payload, out)
}
func (c *TopK) EncodeSnap(params, prev []float64, dst []byte) []byte {
	return c.encodeSnap(c, params, prev, dst)
}
func (c *TopK) DecodeSnap(payload []byte, params []float64) error {
	return addPayload(c, payload, params)
}
