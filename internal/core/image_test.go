package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toc/internal/bitpack"
	"toc/internal/matrix"
)

// An image holds the resident form (physical.go): D′ at the width of its
// largest live id and the creation bitmap. These tests take the shapes on
// which that form has an edge through Serialize and Deserialize, and hand
// the reader images that break one of its rules at a time.

// roundTrip fails unless b's image reads back as a batch that decodes to
// b's bits and gives b's bits from all four Table 1 kernels.
func roundTrip(t *testing.T, tag string, b *Batch) *Batch {
	t.Helper()
	back, err := Deserialize(b.Serialize())
	if err != nil {
		t.Fatalf("%s: own image refused: %v", tag, err)
	}
	if got, want := back.Decode(), b.Decode(); got.Rows() != want.Rows() || got.Cols() != want.Cols() ||
		!bitsEqual(got.Data(), want.Data()) {
		t.Fatalf("%s: the image decodes to other bits", tag)
	}
	rng := rand.New(rand.NewSource(11))
	const p = 3
	v, u := randVec(rng, b.cols), randVec(rng, b.Rows())
	mr, ml := matrix.NewDense(b.cols, p), matrix.NewDense(p, b.Rows())
	fillRand(rng, mr)
	fillRand(rng, ml)
	for _, k := range []struct {
		kernel    string
		got, want []float64
	}{
		{"A·v", back.MulVec(v), b.MulVec(v)},
		{"v·A", back.VecMul(u), b.VecMul(u)},
		{"A·M", back.MulMat(mr).Data(), b.MulMat(mr).Data()},
		{"M·A", back.MatMul(ml).Data(), b.MatMul(ml).Data()},
	} {
		if !bitsEqual(k.got, k.want) {
			t.Fatalf("%s: %s over the image differs from the resident batch's", tag, k.kernel)
		}
	}
	return back
}

func TestResidentImageEdgeShapes(t *testing.T) {
	oneValue := matrix.NewDense(20, 8)
	for k := range oneValue.Data() {
		oneValue.Data()[k] = 2.5
	}
	rng := rand.New(rand.NewSource(2200))
	for name, m := range map[string]*matrix.Dense{
		"noRows":           matrix.NewDense(0, 4),
		"oneColumn":        redundantMatrix(rng, 30, 1, 0.5, 3),
		"allZeros":         matrix.NewDense(10, 5),
		"oneDistinctValue": oneValue,
	} {
		for _, v := range allVariants {
			roundTrip(t, fmt.Sprintf("%s/%v", name, v), CompressVariant(m, v))
		}
	}

	// [a,a,a] encodes to [1,2]: its second code names the node its first
	// created, so the bitmap's running count must admit it at once.
	a, b := Pair{Col: 0, Val: 5}, Pair{Col: 2, Val: -1.5}
	I, D := PrefixTreeEncode([]SparseRow{{b}, {a, a, a}, {a, b, a, a}})
	for _, v := range allVariants {
		tag := fmt.Sprintf("selfReference/%v", v)
		c := newLogicalCase(t, tag, 3, 3, v, I, D)
		codes, self := residentCodes(c.b), false
		for q := 1; q < len(codes); q++ {
			created := c.b.d.created[(q-1)>>6]>>((q-1)&63)&1 != 0
			before := 0
			for p := 0; p < q-1; p++ {
				before += int(c.b.d.created[p>>6] >> (p & 63) & 1)
			}
			if created && int(codes[q]) == c.b.i.len()+before+1 {
				self = true
			}
		}
		if !self {
			t.Fatalf("%s: no code names the node its predecessor created: D′ %v", tag, codes)
		}
		roundTrip(t, tag, c.b)
	}

	// One live node over 1<<16: D′ is 32 bits a code, and the image packs
	// it 3 bytes a code.
	wide := Compress(boundaryMatrix(t, 1<<16+1))
	back := roundTrip(t, "wide", wide)
	if !back.d.isWide() {
		t.Fatal("wide: a live tree of 1<<16+1 nodes reads back with a 16-bit D′")
	}
	paper, err := imageD(back.Serialize(), Full, back.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if oracle := oracleImage(back, paper, false); !bytes.Equal(oracle, back.Serialize()) {
		t.Fatal("wide: the image differs from the oracle's")
	}
	if w := codeWidth(t, back.Serialize()); w != 3 {
		t.Fatalf("wide: the image packs D′ %d bytes a code, want 3", w)
	}
}

// codeWidth returns the byte width of a Full image's D′ section: the
// byte after its count, past I's columns, the value dictionary and the
// dictionary indexes.
func codeWidth(t *testing.T, img []byte) int {
	t.Helper()
	_, buf, err := bitpack.ReadArray(img[headerSize:])
	if err != nil {
		t.Fatal(err)
	}
	buf = buf[4+8*int(binary.LittleEndian.Uint32(buf)):]
	if _, buf, err = bitpack.ReadArray(buf); err != nil {
		t.Fatal(err)
	}
	return int(buf[4])
}

// Images that are well formed section by section but break one rule of
// the resident form each, and the check that refuses each: without that
// check the image would be read. I is pairs a = 1 and b = 2; the base
// image, D = [[1,2],[3]] with node 3 = (a,b) created at position 0, is
// accepted.
func TestResidentImageRefusals(t *testing.T) {
	I := []Pair{{0, 5}, {1, 7}}
	for _, v := range allVariants {
		if _, err := Deserialize(handImage(v, 2, 2, I, []uint32{1, 2, 3}, []uint64{0b1}, []uint32{0, 2, 3})); err != nil {
			t.Fatalf("%v: the base image is refused: %v", v, err)
		}
		for _, c := range []struct {
			name, want string
			codes      []uint32
			created    uint64
			starts     []uint32
		}{
			// Node 4 would be created at position 1, the end of tuple 0, and
			// tuple 1 references it: every code is in range and every live
			// node referenced.
			{"creation bit at a tuple end", "the end of tuple 0", []uint32{1, 2, 3, 4}, 0b11, []uint32{0, 2, 4}},
			// A bit past |D| counts a live node 4 that no code can name.
			{"creation bit past |D|", "live node 4 is not referenced", []uint32{1, 2, 3}, 0b1001, []uint32{0, 2, 3}},
			// Nodes 3 and 4 are created at positions 0 and 1 of the one
			// tuple, which opens with a code naming node 4.
			{"code naming a node created later in its tuple", "names no node", []uint32{4, 3, 1, 2}, 0b11, []uint32{0, 4}},
			{"unreferenced live node", "live node 3 is not referenced", []uint32{1, 2, 1, 2}, 0b1, []uint32{0, 2, 4}},
			{"unreferenced first-layer pair", "first-layer pair 1 is not referenced", []uint32{1, 1}, 0, []uint32{0, 1, 2}},
		} {
			img := handImage(v, len(c.starts)-1, 2, I, c.codes, []uint64{c.created}, c.starts)
			if _, err := Deserialize(img); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%v: %s: got %v, want an error containing %q", v, c.name, err, c.want)
			}
		}
	}
}

// An image of version 1, which held D in the paper's numbering, is
// refused by its version: testdata/image-v1.bin is the Full image a
// version-1 build wrote for a 4×6 batch.
func TestDeserializeRefusesVersion1Image(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "image-v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deserialize(img); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("a version-1 image: %v, want an error containing %q", err, "unsupported version 1")
	}
}
