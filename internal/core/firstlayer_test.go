package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"toc/internal/data"
	"toc/internal/matrix"
)

// The first layer's resident form (batch.go): a value dictionary and one
// word a pair, 32 bits when the columns and the dictionary fit 16 bits
// and 64 otherwise. These tests take both ways out of the narrow word,
// hand the reader words that name past the dictionary or the matrix, and
// pin what mapValues must do when two dictionary entries map to one.

// wideMatrices returns two matrices whose batches need 64-bit words: a
// 1000-row deep1b batch, whose 96000 non-zeros hold 95999 distinct values, and
// four rows over 70000 columns, redundant enough to grow a deep tree.
func wideMatrices(t testing.TB) map[string]*matrix.Dense {
	t.Helper()
	deep, err := data.Generate("deep1b", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols = 4, 70000
	many := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := i; j < cols; j += 7 {
			many.Set(i, j, float64(1+(j/7)%5))
		}
	}
	return map[string]*matrix.Dense{"manyValues": deep.X, "manyColumns": many}
}

// perPairMap is the batch mapValues made before it mapped the
// dictionary: f applied to every pair's value, and the first layer
// value-indexed afresh from the mapped pairs as Compress indexes them,
// D shared.
func perPairMap(b *Batch, f func(float64) float64) *Batch {
	I := b.i.pairs()
	for k := range I {
		I[k].Val = f(I[k].Val)
	}
	first, _ := splitI(I, b.variant, b.Rows(), b.cols)
	nb := &Batch{cols: b.cols, variant: b.variant, i: first, d: b.d}
	nb.sizeImage()
	return nb
}

// checkSameBatch fails unless got gives want's bits from Decode and all
// four Table 1 kernels, and writes want's image at want's length.
func checkSameBatch(t *testing.T, tag string, got, want *Batch) {
	t.Helper()
	if !bitsEqual(got.Decode().Data(), want.Decode().Data()) {
		t.Fatalf("%s: Decode differs", tag)
	}
	rng := rand.New(rand.NewSource(31))
	const p = 3
	v, u := randVec(rng, want.cols), randVec(rng, want.Rows())
	mr, ml := matrix.NewDense(want.cols, p), matrix.NewDense(p, want.Rows())
	fillRand(rng, mr)
	fillRand(rng, ml)
	for _, k := range []struct {
		kernel    string
		got, want []float64
	}{
		{"A·v", got.MulVec(v), want.MulVec(v)},
		{"v·A", got.VecMul(u), want.VecMul(u)},
		{"A·M", got.MulMat(mr).Data(), want.MulMat(mr).Data()},
		{"M·A", got.MatMul(ml).Data(), want.MatMul(ml).Data()},
	} {
		if !bitsEqual(k.got, k.want) {
			t.Fatalf("%s: %s differs", tag, k.kernel)
		}
	}
	if img := got.Serialize(); !bytes.Equal(img, want.Serialize()) || got.CompressedSize() != want.CompressedSize() ||
		got.CompressedSize() != len(img) {
		t.Fatalf("%s: image of %d bytes, CompressedSize %d; want %d bytes", tag, len(img), got.CompressedSize(), len(want.Serialize()))
	}
}

// checkOracleKernels fails unless b's four Table 1 kernels give the bits
// of the textbook loops over the oracle tree of (I, paper).
func checkOracleKernels(t *testing.T, tag string, b *Batch, paper dTable) {
	t.Helper()
	want := oracleBuild(b.i.pairs(), paper)
	rng := rand.New(rand.NewSource(37))
	const p = 3
	v, u := randVec(rng, b.cols), randVec(rng, b.Rows())
	mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.Rows())
	fillRand(rng, mr)
	fillRand(rng, ml)
	for _, k := range []struct {
		kernel    string
		got, want []float64
	}{
		{"A·v", b.MulVec(v), want.mulVec(paper, v)},
		{"v·A", b.VecMul(u), want.vecMul(paper, u, b.cols)},
		{"A·M", b.MulMat(mr).Data(), want.mulMat(paper, mr).Data()},
		{"M·A", b.MatMul(ml).Data(), want.matMul(paper, ml, b.cols).Data()},
	} {
		if !bitsEqual(k.got, k.want) {
			t.Fatalf("%s: %s differs from the oracle", tag, k.kernel)
		}
	}
}

// A first layer whose dictionary or columns pass 16 bits takes the
// 64-bit word, and matches the oracle on every kernel, on Decode, on
// Scale and Square (against the per-pair mapping) and through its image.
func TestWideFirstLayerMatchesOracle(t *testing.T) {
	for name, m := range wideMatrices(t) {
		lc := compressedCase(m)
		b := lc.b
		if !b.i.isWide() || b.i.narrow == nil || len(b.i.narrow) != 0 {
			t.Fatalf("%s: %d columns and %d dictionary entries hold I in %d narrow and %d wide words",
				name, b.cols, len(b.i.vals), len(b.i.narrow), len(b.i.wide))
		}
		checkResidentForm(t, name, b, lc.paper)
		checkOracleKernels(t, name, b, lc.paper)
		for _, c := range []struct {
			op string
			f  func(float64) float64
			x  *Batch
		}{
			{"Scale(3)", func(v float64) float64 { return v * 3 }, b.Scale(3)},
			{"Square", func(v float64) float64 { return v * v }, b.Square()},
			{"Scale(0)", func(v float64) float64 { return v * 0 }, b.Scale(0)},
		} {
			checkSameBatch(t, name+" "+c.op, c.x, perPairMap(b, c.f))
			checkOracleKernels(t, name+" "+c.op, c.x, lc.paper)
		}
		// Scale(0) leaves a dictionary of the zeros: narrow when the
		// columns fit.
		if z := b.Scale(0); z.i.isWide() != (b.cols > 1<<16) || len(z.i.vals) > 2 {
			t.Fatalf("%s: Scale(0) holds %d entries in wide=%v words", name, len(z.i.vals), z.i.isWide())
		}
		back := roundTrip(t, name, b)
		if !back.i.isWide() || !sameFirstLayer(&back.i, &b.i) {
			t.Fatalf("%s: the image reads back as another first layer", name)
		}
		recycled, err := Deserialize(b.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		recycled.Recycle()
		if again, err := Deserialize(b.Serialize()); err != nil || !sameFirstLayer(&again.i, &b.i) {
			t.Fatalf("%s: read into recycled memory: %v, or another first layer", name, err)
		}
	}
}

// A hand-built Full image whose word names a dictionary entry past the
// dictionary, or a column past the matrix, is refused with an error, at
// either word width.
func TestDeserializeRefusesFirstLayerOutOfRange(t *testing.T) {
	small := matrix.NewDense(12, 9)
	for i := 0; i < 12; i++ {
		for j := 0; j < 9; j++ {
			if (i+j)%3 != 0 {
				small.Set(i, j, float64((i*j)%5+1))
			}
		}
	}
	for name, m := range map[string]*matrix.Dense{"narrow": small, "wide": wideMatrices(t)["manyColumns"]} {
		b := Compress(m)
		if b.i.isWide() != (name == "wide") {
			t.Fatalf("%s: I wide=%v", name, b.i.isWide())
		}
		n := uint32(len(b.i.vals))
		for _, c := range []struct {
			what string
			pair func(col, idx uint32) (uint32, uint32)
			want string
		}{
			{"a value index past the dictionary", func(col, _ uint32) (uint32, uint32) { return col, n },
				fmt.Sprintf("value index %d out of range %d", n, n)},
			{"a column past the matrix", func(_, idx uint32) (uint32, uint32) { return uint32(b.cols), idx },
				fmt.Sprintf("column %d out of range %d", b.cols, b.cols)},
		} {
			bad := *b
			bad.i = firstLayer{narrow: slices.Clone(b.i.narrow), wide: slices.Clone(b.i.wide), vals: b.i.vals}
			last := bad.i.len() - 1
			col, idx := c.pair(bad.i.pair(last))
			bad.i.set(last, col, idx)
			img := new(encoder).image(&bad)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s, %s: Deserialize panicked: %v", name, c.what, r)
					}
				}()
				if _, err := Deserialize(img); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("%s, %s: got %v, want an error containing %q", name, c.what, err, c.want)
				}
			}()
		}
	}
}

// Two dictionary entries that Square or Scale(0) maps to the same bits
// become one, and the batch is the one per-pair mapping makes: the same
// Decode bits, kernel results, CompressedSize and image bytes — from a
// compressed batch, from one read from its image, and for the
// SparseLogical variant, whose dictionary stays I's values in order.
func TestMapValuesMergesCollidingEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := redundantMatrix(rng, 60, 14, 0.7, 4)
	for k, v := range m.Data() {
		if k%3 == 0 {
			m.Data()[k] = -v // x and -x both present: Square merges them
		}
	}
	m.Set(0, 0, math.Inf(1))
	m.Set(1, 1, math.Inf(-1)) // Scale(0) maps both to NaN
	ops := []struct {
		op string
		f  func(float64) float64
		x  func(*Batch) *Batch
	}{
		{"Square", func(v float64) float64 { return v * v }, (*Batch).Square},
		{"Scale(0)", func(v float64) float64 { return v * 0 }, func(b *Batch) *Batch { return b.Scale(0) }},
		{"Scale(-0.5)", func(v float64) float64 { return v * -0.5 }, func(b *Batch) *Batch { return b.Scale(-0.5) }},
	}
	for _, v := range allVariants {
		b := CompressVariant(m, v)
		back, err := Deserialize(b.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			for src, x := range map[string]*Batch{"compressed": b, "deserialized": back} {
				tag := fmt.Sprintf("%v %s %s", v, src, o.op)
				got := o.x(x)
				checkSameBatch(t, tag, got, perPairMap(x, o.f))
				merged := len(got.i.vals) < len(x.i.vals)
				if want := v == Full && o.op != "Scale(-0.5)"; merged != want {
					t.Fatalf("%s: dictionary of %d entries maps to %d; merged=%v, want %v", tag, len(x.i.vals), len(got.i.vals), merged, want)
				}
			}
		}
	}
}
