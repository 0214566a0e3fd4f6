package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
// dictionary indexes, if any.
func codeWidth(t *testing.T, img []byte) int {
	t.Helper()
	colSec, buf, err := bitpack.ReadArray(img[headerSize:])
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if buf = buf[4+8*n:]; n != colSec.Len() {
		if _, buf, err = bitpack.ReadArray(buf); err != nil {
			t.Fatal(err)
		}
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

// A Full image whose dictionary has an entry a pair holds the values in
// pair order and no index section (physical.go). These images break
// that layout one way each, narrow and wide, and must be refused
// without a panic: an image of the previous version, whose identity
// index section this one dropped; the values cut short; an index
// section after |I| values, which the reader takes for D′, so that the
// sections after it no longer line up; and a column equal to cols.
func TestDeserializeRefusesRawLayoutFaults(t *testing.T) {
	narrow := matrix.NewDense(5, 6)
	for i := 0; i < 5; i++ {
		for j := 0; j < 6; j++ {
			if (i+j)%3 != 0 {
				narrow.Set(i, j, float64(i*7+j)+0.5)
			}
		}
	}
	refused := func(tag string, img []byte, want string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Deserialize panicked: %v", tag, r)
			}
		}()
		if _, err := Deserialize(img); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", tag, err, want)
		}
	}
	for name, m := range map[string]*matrix.Dense{"narrow": narrow, "wide": distinctWide()} {
		b := Compress(m)
		if n := len(b.i.vals); n != b.i.len() || b.i.isWide() != (name == "wide") {
			t.Fatalf("%s: %d pairs, %d dictionary entries, wide=%v", name, b.i.len(), n, b.i.isWide())
		}
		img := b.Serialize()
		colSec, rest, err := bitpack.ReadArray(img[headerSize:])
		if err != nil {
			t.Fatal(err)
		}
		vals := len(img) - len(rest) + 4 // the first value's offset
		end := vals + 8*colSec.Len()

		refused(name+": version 2", with(img, 4, 2), "unsupported version 2")
		refused(name+": cut inside the values", img[:end-3], "truncated value dictionary")
		refused(name+": cut at the first value", img[:vals], "truncated value dictionary")

		idx := make([]uint32, colSec.Len())
		for k := range idx {
			idx[k] = uint32(k)
		}
		// A count of |I| says no index section follows, so the inserted
		// one is read as D′, and every later section shifts by one: what
		// is left where the starts belong does not parse.
		indexed := append(append(slices.Clone(img[:end]), bitpack.Pack(idx).AppendTo(nil)...), img[end:]...)
		refused(name+": an identity index section after the values", indexed, "core: D starts: bitpack: ")

		bad := *b
		bad.i = firstLayer{narrow: slices.Clone(b.i.narrow), wide: slices.Clone(b.i.wide), vals: b.i.vals}
		last := bad.i.len() - 1
		_, x := bad.i.pair(last)
		bad.i.set(last, uint32(b.cols), x)
		refused(name+": a column equal to cols", new(encoder).image(&bad),
			fmt.Sprintf("I[%d] column %d out of range %d", last, b.cols, b.cols))
	}

	// What a version-2 build wrote for FuzzDeserialize's 4×6 batch, whose
	// 16 values are distinct: refused by its version, and, given this
	// version's byte, for the identity index section it holds, which
	// this version reads as D′.
	v2 := corpusImage(t, "FuzzDeserialize/seed-full")
	refused("version-2 image", v2, "unsupported version 2")
	refused("version-2 image read as version 3", with(v2, 4, imageVersion), "core: D starts: bitpack: ")
}

// distinctWide returns a matrix of more columns than 16 bits name, and
// no value twice: its batch holds 64-bit words and no index section.
func distinctWide() *matrix.Dense {
	m := matrix.NewDense(2, 70000)
	for i := 0; i < 2; i++ {
		for j := i; j < 70000; j += 5 {
			m.Set(i, j, float64(j)+0.25*float64(i))
		}
	}
	return m
}

// with returns a copy of img with the byte at pos set to c.
func with(img []byte, pos int, c byte) []byte {
	out := slices.Clone(img)
	out[pos] = c
	return out
}

// A batch whose values are all distinct — every imagenet and rcv1 batch
// and most deep1b ones at the benchmark's shape, and one of 64-bit
// words — writes an image with no index section and reads back as the
// resident form it was written from: the same words and dictionary, the
// same Decode and kernel bits (roundTrip), and a batch that
// checkResidentForm holds to the oracle tree of its image's D, as it
// holds the compressed one. Into recycled memory the read gives the
// same batch again.
func TestRawImageRoundTrip(t *testing.T) {
	for _, name := range []string{"imagenet", "rcv1", "deep1b", "wide"} {
		var b *Batch
		if name == "wide" {
			b = Compress(distinctWide())
		} else {
			for _, m := range generatorBatches(t, name, 1) {
				if b = Compress(m); len(b.i.vals) == b.i.len() {
					break
				}
			}
		}
		if len(b.i.vals) != b.i.len() || b.i.isWide() != (name == "wide") {
			t.Fatalf("%s: no batch of all-distinct values at the expected width", name)
		}
		img := b.Serialize()
		if len(img) != b.CompressedSize() {
			t.Fatalf("%s: image of %d bytes, CompressedSize %d", name, len(img), b.CompressedSize())
		}
		paper, err := imageD(img, Full, b.Rows())
		if err != nil {
			t.Fatal(err)
		}
		back := roundTrip(t, name, b)
		if !slices.Equal(back.i.narrow, b.i.narrow) || !slices.Equal(back.i.wide, b.i.wide) || !bitsEqual(back.i.vals, b.i.vals) {
			t.Fatalf("%s: the image reads back as other words or another dictionary", name)
		}
		checkResidentForm(t, name, b, paper)
		checkResidentForm(t, name+" read back", back, paper)
		again := recycledFrom(t, img)
		if err := deserializeInto(again, img); err != nil {
			t.Fatal(err)
		}
		sameBatch(t, name+" recycled", again, back)
	}
}
