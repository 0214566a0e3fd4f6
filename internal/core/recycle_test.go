package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"toc/internal/data"
	"toc/internal/matrix"
)

// recycledFrom returns memory recycled from a batch read from img, the
// way Recycle leaves it, but poisoned whatever the build: every value the
// next read does not overwrite is one no kernel survives.
func recycledFrom(t testing.TB, img []byte) *Batch {
	t.Helper()
	b := new(Batch)
	if err := deserializeInto(b, append([]byte(nil), img...)); err != nil {
		t.Fatal(err)
	}
	b.poison()
	b.spare()
	return b
}

// sameBatch fails unless got, read into recycled memory, is want, read
// fresh, bit for bit: its image written back from its resident form, its
// resident-form shape, and the outputs of the four Table 1 kernels.
func sameBatch(t *testing.T, tag string, got, want *Batch) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols || got.variant != want.variant ||
		got.CompressedSize() != want.CompressedSize() || got.d.isWide() != want.d.isWide() ||
		got.d.live != want.d.live || got.d.top != want.d.top {
		t.Fatalf("%s: recycled batch %dx%d %v size %d wide %v live %d top %d; fresh %dx%d %v size %d wide %v live %d top %d",
			tag, got.rows, got.cols, got.variant, got.CompressedSize(), got.d.isWide(), got.d.live, got.d.top,
			want.rows, want.cols, want.variant, want.CompressedSize(), want.d.isWide(), want.d.live, want.d.top)
	}
	if !bytes.Equal(written(got), written(want)) {
		t.Fatalf("%s: the image written from recycled memory differs from the fresh batch's", tag)
	}
	rng := rand.New(rand.NewSource(7))
	v, u := randVec(rng, want.cols), randVec(rng, want.rows)
	m, n := matrix.NewDense(want.cols, 5), matrix.NewDense(5, want.rows)
	fillRand(rng, m)
	fillRand(rng, n)
	if !bitsEqual(got.MulVec(v), want.MulVec(v)) || !bitsEqual(got.VecMul(u), want.VecMul(u)) ||
		!bitsEqual(got.MulMat(m).Data(), want.MulMat(m).Data()) || !bitsEqual(got.MatMul(n).Data(), want.MatMul(n).Data()) {
		t.Fatalf("%s: a kernel over recycled memory differs from the fresh batch's", tag)
	}
}

// Reading image B into memory recycled from image A gives the batch a
// fresh read of B gives, for A larger and smaller than B, across the
// variants and across both D′ widths.
func TestRecycledEqualsFresh(t *testing.T) {
	check := func(tag string, a, b []byte) {
		t.Helper()
		got := recycledFrom(t, a)
		if err := deserializeInto(got, b); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		want := new(Batch)
		if err := deserializeInto(want, b); err != nil {
			t.Fatal(err)
		}
		sameBatch(t, tag, got, want)
	}
	var small []byte
	for _, name := range data.Names() {
		ds, err := data.Generate(name, 250, 1)
		if err != nil {
			t.Fatal(err)
		}
		imgs := map[string][]byte{}
		for _, v := range allVariants {
			large, _ := ds.Batch(0, 200)
			x, _ := ds.Batch(4, 50)
			imgs[fmt.Sprintf("%v-200", v)] = CompressVariant(large, v).Serialize()
			imgs[fmt.Sprintf("%v-50", v)] = CompressVariant(x, v).Serialize()
		}
		small = imgs["TOC_FULL-50"]
		for ta, a := range imgs {
			for tb, b := range imgs {
				if ta != tb {
					check(fmt.Sprintf("%s: %s into %s", name, tb, ta), a, b)
				}
			}
		}
	}
	// Live trees of 1<<16 nodes (16-bit D′) and one more (32-bit), into
	// each other and to and from a small batch.
	narrow := Compress(boundaryMatrix(t, 1<<16)).Serialize()
	wide := Compress(boundaryMatrix(t, 1<<16+1)).Serialize()
	check("wide into narrow", narrow, wide)
	check("narrow into wide", wide, narrow)
	check("wide into small", small, wide)
	check("small into wide", wide, small)
}
