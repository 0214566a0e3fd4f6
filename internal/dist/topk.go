package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
// Selection contract. A coordinate's key is its magnitude bits,
// math.Float64bits(v) with the sign cleared, which for floats orders
// exactly as |v| does. The payload carries the k coordinates that come
// first by (key descending, index ascending): every coordinate whose
// key exceeds the k-th largest key t, then the lowest-indexed ones with
// key == t until k are chosen. +0 and -0 share key 0 and so tie; ±v
// tie. A NaN keys above +Inf, so it is always sent (and surfaces at the
// receiver) rather than sitting in the residual forever. For finite
// input this is the order the codec has always had — it used to sort
// every coordinate by (math.Abs descending, index ascending) — and the
// frames are byte-identical; that comparator is not a strict weak order
// once a NaN appears, so what it selected then was unspecified, and the
// rule above is what defines it now. The selection is a linear-time
// quickselect on the keys (selectKth) plus one scan, which leaves the
// chosen indices already ascending. Indices travel bitpacked
// (internal/bitpack width-minimal arrays), values as raw float64.
type TopK struct {
	ratio float64
	feedback
	keys []uint64 // selection scratch: every coordinate's key, permuted by selectKth
	idx  []uint32 // the chosen indices, ascending
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

// magKey is the selection key of v: its bits without the sign.
func magKey(v float64) uint64 { return math.Float64bits(v) &^ (1 << 63) }

// choose fills c.idx with the k indices of acc the selection contract
// picks, ascending, and returns it.
func (c *TopK) choose(acc []float64, k int) []uint32 {
	np := len(acc)
	if cap(c.keys) < np {
		c.keys = make([]uint64, np)
	}
	keys := c.keys[:np]
	for i, v := range acc {
		keys[i] = magKey(v)
	}
	// The k largest keys sit at ascending ranks np-k … np-1.
	t, above, _ := selectKth(keys, np-k)
	ties := k - above // how many coordinates with key == t are sent
	idx := c.idx[:0]
	for i, v := range acc {
		if key := magKey(v); key > t {
			idx = append(idx, uint32(i))
		} else if key == t && ties > 0 {
			idx = append(idx, uint32(i))
			ties--
		}
	}
	c.idx = idx
	return idx
}

// encode appends the top-k image of acc and zeroes the sent
// coordinates, leaving acc as the new residual.
func (c *TopK) encode(acc []float64, dst []byte) []byte {
	np := len(acc)
	k := c.kOf(np)
	idx := c.choose(acc, k)
	dst = header(dst, tagTopK, np)
	dst = bitpack.AppendUvarint(dst, uint64(k))
	dst = bitpack.Pack(idx).AppendTo(dst)
	for _, j := range idx {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(acc[j]))
		acc[j] = 0
	}
	return dst
}

// smallSelect is the window size at or below which selectKth sorts
// instead of partitioning.
const smallSelect = 16

// selectKth returns the key of ascending rank r in keys (0 ≤ r <
// len(keys)) and how many keys are strictly above it, permuting keys as
// it goes. It is a quickselect with a deterministic ninther pivot and a
// three-way partition — the downlink delta is mostly exact zeros, and a
// two-way partition goes quadratic on ties, where three-way finishes a
// run of equal keys in one round. A round splits the window into
// (≤ p | > p) and, only when rank r is not in the upper part — where the
// top-k rank usually is — splits the lower part again into (< p | == p).
// The work is bounded without a clock: after 2·⌈log₂ n⌉ rounds, or once
// the window is small, whatever window is left is sorted. partitions
// reports how many rounds ran, which the worst-case test asserts on.
func selectKth(keys []uint64, r int) (t uint64, above, partitions int) {
	n := len(keys)
	lo, hi := 0, n // rank r lies in keys[lo:hi]; everything left of lo is smaller, right of hi larger
	for budget := 2 * bits.Len(uint(n-1)); hi-lo > smallSelect && budget > 0; budget-- {
		p := ninther(keys[lo:hi])
		partitions++
		gt := lo + split(keys[lo:hi], p)
		if r >= gt {
			lo = gt
			continue
		}
		lt := lo
		if p > 0 {
			lt += split(keys[lo:gt], p-1)
		}
		if r >= lt {
			return p, n - gt, partitions
		}
		hi = lt
	}
	w := keys[lo:hi]
	slices.Sort(w)
	t = w[r-lo]
	end := r - lo + 1
	for end < len(w) && w[end] == t {
		end++
	}
	return t, n - (lo + end), partitions
}

// split moves the keys of w that are ≤ p in front of the rest and
// returns how many there are. Keys have the sign bit clear, so p-v wraps
// into it exactly when v > p, which makes the loop branch-free: on
// random magnitudes a compare-and-branch mispredicts every other key.
func split(w []uint64, p uint64) int {
	n := 0
	for i, v := range w {
		w[i] = w[n]
		w[n] = v
		n += int((p-v)>>63 ^ 1)
	}
	return n
}

// ninther is the median of the medians of three spread triples of w
// (len(w) ≥ 9): a pivot no fixed input order defeats cheaply.
func ninther(w []uint64) uint64 {
	n := len(w)
	s := n / 8
	m := n / 2
	return median3(
		median3(w[0], w[s], w[2*s]),
		median3(w[m-s], w[m], w[m+s]),
		median3(w[n-1-2*s], w[n-1-s], w[n-1]),
	)
}

func median3(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
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
func (c *TopK) DecodeGrad(payload []byte, out []float64) error {
	return decodeGrad(c, payload, out)
}
func (c *TopK) EncodeSnap(params, prev []float64, dst []byte) []byte {
	return c.encodeSnap(c, params, prev, dst)
}
func (c *TopK) DecodeSnap(payload []byte, params []float64) error {
	return addPayload(c, payload, params)
}
