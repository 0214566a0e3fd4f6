package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"toc/internal/bitpack"
	"toc/internal/testutil"
)

// oracleChoose is the selector TopK.encode ran until the quickselect
// replaced it, kept as the reference: sort every coordinate by (|v|
// descending, index ascending), keep the first k, sort those by index.
// It defines the selection only for NaN-free input (its comparator is
// not a strict weak order otherwise).
func oracleChoose(acc []float64, k int) []uint32 {
	sel := make([]int, len(acc))
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
	idx := make([]uint32, k)
	for i, j := range sel {
		idx[i] = uint32(j)
	}
	return idx
}

// oracleEncode is the frame writer around oracleChoose, as it stood; it
// also returns what was chosen.
func oracleEncode(acc []float64, k int, dst []byte) ([]byte, []uint32) {
	idx := oracleChoose(acc, k)
	dst = header(dst, tagTopK, len(acc))
	dst = bitpack.AppendUvarint(dst, uint64(k))
	width := 1 // the indexes bit packed by the reference packer
	for _, j := range idx {
		width = max(width, bitpack.BytesPerInt(j))
	}
	dst = testutil.RefArray(dst, idx, width)
	for _, j := range idx {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(acc[j]))
		acc[j] = 0
	}
	return dst, idx
}

// checkAgainstOracle encodes vec with the codec and with the oracle and
// compares the chosen index set, the whole frame and the residual left.
func checkAgainstOracle(t *testing.T, c *TopK, vec []float64) {
	t.Helper()
	k := c.kOf(len(vec))
	want := append([]float64(nil), vec...)
	wantFrame, wantIdx := oracleEncode(want, k, nil)

	got := append([]float64(nil), vec...)
	gotIdx := append([]uint32(nil), c.choose(got, k)...)
	gotFrame := c.encode(got, nil)
	if !slices.Equal(gotIdx, wantIdx) {
		t.Fatalf("np %d k %d: chose %v, oracle %v", len(vec), k, gotIdx, wantIdx)
	}
	if !bytes.Equal(gotFrame, wantFrame) {
		t.Fatalf("np %d k %d: frame differs from the oracle's", len(vec), k)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("np %d k %d: residual coord %d = %v, oracle %v", len(vec), k, i, got[i], want[i])
		}
	}
}

// selectShapes are the input orders a selection has to survive: the
// common case, the downlink's (mostly exact zeros), and the classic
// quickselect adversaries.
var selectShapes = []struct {
	name string
	fill func(rng *rand.Rand, v []float64)
}{
	{"random", func(rng *rand.Rand, v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}},
	{"99%-zero", func(rng *rand.Rand, v []float64) {
		for i := range v {
			if rng.Intn(100) == 0 {
				v[i] = rng.NormFloat64()
			}
		}
	}},
	{"ascending", func(_ *rand.Rand, v []float64) {
		for i := range v {
			v[i] = float64(i) - 0.5 // one negative, so the sign bit is exercised
		}
	}},
	{"descending", func(_ *rand.Rand, v []float64) {
		for i := range v {
			v[i] = -float64(len(v) - i)
		}
	}},
	{"organ-pipe", func(_ *rand.Rand, v []float64) {
		for i := range v {
			v[i] = float64(min(i, len(v)-1-i))
		}
	}},
	{"two-value", func(rng *rand.Rand, v []float64) {
		for i := range v {
			v[i] = []float64{0.25, -3}[rng.Intn(2)]
		}
	}},
}

var selectSizes = []int{1, 2, 97, 4096, 49960}

// The linear-time selection picks exactly what the full sort picked, and
// writes the same bytes, on every shape, size and ratio.
func TestTopKSelectMatchesSortOracle(t *testing.T) {
	for _, np := range selectSizes {
		for _, ratio := range []float64{1 / float64(np), 0.01, 0.1, 1} {
			c := &TopK{ratio: ratio} // one codec per row: the scratch is reused across shapes
			for _, shape := range selectShapes {
				vec := make([]float64, np)
				shape.fill(rand.New(rand.NewSource(int64(np))), vec)
				t.Run(fmt.Sprintf("%s/np=%d/ratio=%g", shape.name, np, ratio), func(t *testing.T) {
					checkAgainstOracle(t, c, vec)
				})
			}
		}
	}
}

// FuzzTopKSelect reads the bytes as a ratio and float64s (non-finite
// ones dropped: the oracle is undefined there) and holds the selection
// to the oracle's indices, frame and residual.
func FuzzTopKSelect(f *testing.F) {
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ratio := (float64(data[0]) + 1) / 256
		var vec []float64
		for b := data[1:]; len(b) >= 8; b = b[8:] {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(b)); !math.IsNaN(v) && !math.IsInf(v, 0) {
				vec = append(vec, v)
			}
		}
		if len(vec) == 0 {
			return
		}
		checkAgainstOracle(t, &TopK{ratio: ratio}, vec)
	})
}
