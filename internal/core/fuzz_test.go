package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"toc/internal/bitpack"
	"toc/internal/matrix"
)

// FuzzDeserialize drives adversarial byte images through the physical
// decoder. The contract under fuzz: Deserialize either returns an error
// or returns a Batch whose decode and kernels are safe to execute —
// never a panic, never an out-of-bounds access, regardless of input —
// and whose resident form keeps every promise of decodetree.go against
// the oracle tree of the image's own D (checkResidentForm). Read a second
// time into poisoned recycled memory, every input gets the same verdict,
// and an accepted one the same batch.
// Seed corpus lives in testdata/fuzz/FuzzDeserialize; CI runs a short
// -fuzz pass over it on every push.
func FuzzDeserialize(f *testing.F) {
	// Valid images of every variant, plus structured corruption, seed
	// the mutator with the real wire layout.
	dense := fourBySix()
	for _, v := range allVariants {
		f.Add(CompressVariant(dense, v).Serialize())
	}
	good := Compress(dense).Serialize()
	trunc := append([]byte(nil), good[:len(good)/2]...)
	f.Add(trunc)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("TOCB"))
	f.Add(unreferencedFirstLayerImage())
	// Both sides of the D′ width boundary: live trees of 1<<16 nodes
	// (16-bit codes) and one more (32-bit).
	for _, nodes := range []int{1 << 16, 1<<16 + 1} {
		f.Add(Compress(boundaryMatrix(f, nodes)).Serialize())
	}
	// A 1×1 header naming variant 2, the sparse encoding alone, which
	// this package no longer has (formats' TOC_SPARSE is CSR).
	f.Add([]byte("TOCB" + string([]byte{imageVersion, 2}) + "\x01\x00\x00\x00\x01\x00\x00\x00"))

	// The batch whose recycled memory every input is read into a second
	// time: larger than the small seeds, smaller than the boundary ones.
	recycled := matrix.NewDense(60, 40)
	for r := 0; r < 60; r++ {
		for c := 0; c < 40; c++ {
			if (r*c)%7 != 0 {
				recycled.Set(r, c, float64((r+2*c)%9))
			}
		}
	}
	recycledImg := Compress(recycled).Serialize()
	// Its values repeat, so its image has an index section, which a
	// SparseLogical image may not have.
	f.Add(with(recycledImg, 5, byte(SparseLogical)))

	f.Fuzz(func(t *testing.T, img []byte) {
		b, err := Deserialize(img)
		again := recycledFrom(t, recycledImg)
		if rerr := deserializeInto(again, img); (rerr == nil) != (err == nil) {
			t.Fatalf("fresh read: %v; read into recycled memory: %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(written(again), written(b)) {
			t.Fatal("the batch read into recycled memory writes another image")
		}
		if b.d.len() <= 1<<16 {
			paper, err := imageD(img)
			if err != nil {
				t.Fatalf("accepted image does not parse: %v", err)
			}
			if int64(b.Rows())*int64(b.cols) <= 1<<20 {
				checkResidentForm(t, "accepted image", b, paper)
			} else {
				paperIDs(t, "accepted image", b)
			}
		}
		rows, cols := b.Rows(), b.Cols()
		if rows < 0 || cols < 0 {
			t.Fatalf("accepted image with negative dims %dx%d", rows, cols)
		}
		// Header dims are bounded but their product can still be huge;
		// skip kernel execution (not validation) for shapes whose dense
		// buffers would dominate the fuzz worker's memory.
		if int64(rows)*int64(cols) > 1<<20 {
			return
		}
		d := b.Decode()
		if d.Rows() != rows || d.Cols() != cols {
			t.Fatalf("decode shape %dx%d, header says %dx%d", d.Rows(), d.Cols(), rows, cols)
		}
		// The kernels must walk any accepted structure without panicking.
		v := make([]float64, cols)
		for i := range v {
			v[i] = float64(i%5) - 2
		}
		_ = b.MulVec(v)
		u := make([]float64, rows)
		for i := range u {
			u[i] = float64(i%3) - 1
		}
		_ = b.VecMul(u)
		// So must a plan: its tree is built from the same (I, D), and the
		// kernels gather through KeyIdx and Parent without further checks
		// of their own.
		plan := b.NewKernelPlan()
		_ = plan.MulVecInto(nil, v, 2)
		_ = plan.VecMulInto(nil, u, 2)
		// The matrix kernels add the liveness marks and the panel walk: an
		// empty operand (index 0), one narrow panel sequentially, then two
		// runs of a ragged p.
		for workers, p := range []int{1: 3, 2: panelWidth + 3} {
			_ = plan.MulMatInto(nil, matrix.NewDense(cols, p), workers)
			_ = plan.MatMulInto(nil, matrix.NewDense(p, rows), workers)
		}
		plan.Release()
		// A batch that deserialized must reserialize to a decodable image.
		if _, err := Deserialize(b.Serialize()); err != nil {
			t.Fatalf("accepted batch does not reserialize: %v", err)
		}
	})
}

// fourBySix is FuzzDeserialize's 4×6 batch: 16 nonzeros, no value twice.
func fourBySix() *matrix.Dense {
	m := matrix.NewDense(4, 6)
	for r := 0; r < 4; r++ {
		for c := 0; c < 6; c++ {
			if (r+c)%3 != 0 {
				m.Set(r, c, float64(r*7+c)/3)
			}
		}
	}
	return m
}

// imageD reads D out of an image by a path of its own — bitpack's
// reader and whole-array unpack, which skip I's sections — and returns
// it in the paper's numbering (paperOf). An image's packed sections are
// I's columns, the values' dictionary indexes, D′ and the starts. The value
// dictionary (a count, then 8 bytes a value) follows the columns, and
// the index section is absent when it counts one value a column; the
// creation bitmap (a byte for every 8 codes) follows D′.
func imageD(img []byte) (dTable, error) {
	colSec, buf, err := bitpack.ReadArray(img[headerSize:])
	if err != nil {
		return dTable{}, err
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if buf = buf[4+8*n:]; n != colSec.Len() {
		if _, buf, err = bitpack.ReadArray(buf); err != nil {
			return dTable{}, err
		}
	}
	codeSec, buf, err := bitpack.ReadArray(buf)
	if err != nil {
		return dTable{}, err
	}
	bitmap, buf := buf[:(codeSec.Len()+7)/8], buf[(codeSec.Len()+7)/8:]
	startSec, _, err := bitpack.ReadArray(buf)
	if err != nil {
		return dTable{}, err
	}
	return paperOf(colSec.Len(), codeSec.Unpack(), bitmap, startSec.Unpack()), nil
}

// paperOf maps an image's D′ back to the paper's numbering by replaying
// Algorithm 1's node creation position by position: the node a tuple's
// non-final position creates is the next paper number from |I|+1, and
// the next live id too when its bit in the image's bitmap is set.
func paperOf(lenI int, codes []uint32, bitmap []byte, starts []uint32) dTable {
	paper := make([]uint32, lenI+1)
	for k := range paper {
		paper[k] = uint32(k)
	}
	next := uint32(lenI) + 1
	for r := 0; r+1 < len(starts); r++ {
		for q := starts[r]; q+1 < starts[r+1]; q++ {
			if bitmap[q/8]>>(q%8)&1 != 0 {
				paper = append(paper, next)
			}
			next++
		}
	}
	nodes := make([]uint32, len(codes))
	for k, n := range codes {
		nodes[k] = paper[n]
	}
	return dTable{Nodes: nodes, Starts: starts}
}

// corpusImage reads the []byte value of a committed corpus entry,
// testdata/fuzz/<target>/<name> in Go's "go test fuzz v1" encoding.
func corpusImage(t *testing.T, entry string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", entry))
	if err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	img, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", entry, err)
	}
	return []byte(img)
}

// fuzzMatrix turns fuzz bytes into a small dense matrix with the
// structure Algorithm 1 feeds on: a shape, a short palette of values
// whose raw float64 bits come straight from the input (so NaNs of any
// payload, infinities, denormals and both zeros all occur), and one byte
// per cell choosing zero or a palette entry — values repeat across
// tuples, so matches extend and the tree grows. Cells past the input's
// end are zero.
func fuzzMatrix(in []byte) *matrix.Dense {
	if len(in) < 3 {
		return matrix.NewDense(0, 0)
	}
	rows, cols, npal := 1+int(in[0]%24), 1+int(in[1]%16), 1+int(in[2]%8)
	in = in[3:]
	palette := make([]float64, npal)
	for k := range palette {
		var raw [8]byte
		in = in[copy(raw[:], in):]
		palette[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
	m := matrix.NewDense(rows, cols)
	for k, c := range in {
		if k == rows*cols {
			break
		}
		if pick := int(c) % (npal + 1); pick > 0 {
			m.Data()[k] = palette[pick-1]
		}
	}
	return m
}

// FuzzCompressRoundTrip drives arbitrary float bit patterns through the
// encoder. The contract under fuzz: every variant of every matrix
// compresses, its image is CompressedSize bytes and deserializes, and
// both the batch and its image decode to the input's exact bits — except
// that a cell equal to zero (either sign) is not stored and decodes +0 —
// a kernel plan runs over the result, and Algorithm 1 leaves no
// first-layer pair unreferenced (the renumbering keeps a first-layer
// node's number on that ground).
// Seed corpus lives in
// testdata/fuzz/FuzzCompressRoundTrip; CI runs a short -fuzz pass.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{3, 4, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		m := fuzzMatrix(in)
		want := m.Clone()
		for k, v := range want.Data() {
			if v == 0 {
				want.Data()[k] = 0 // -0 is dropped with the zeros
			}
		}
		v := make([]float64, m.Cols())
		for i := range v {
			v[i] = float64(i%5) - 2
		}
		for _, variant := range allVariants {
			b := CompressVariant(m, variant)
			img := b.Serialize()
			if b.CompressedSize() != len(img) {
				t.Fatalf("%v: CompressedSize %d, image %d bytes", variant, b.CompressedSize(), len(img))
			}
			back, err := Deserialize(img)
			if err != nil {
				t.Fatalf("%v: own image rejected: %v", variant, err)
			}
			referenced := make([]bool, b.i.len()+1)
			_, D := PrefixTreeEncode(SparseEncode(m))
			for _, codes := range D {
				for _, n := range codes {
					if int(n) <= b.i.len() {
						referenced[n] = true
					}
				}
			}
			for k := 1; k <= b.i.len(); k++ {
				if !referenced[k] {
					t.Fatalf("%v: Algorithm 1 never emits first-layer node %d (%v)", variant, k, b.i.pairs()[k-1])
				}
			}
			checkResidentForm(t, variant.String(), b, flattenD(D))
			for name, got := range map[string]*Batch{"batch": b, "deserialized image": back} {
				d := got.Decode()
				if d.Rows() != m.Rows() || d.Cols() != m.Cols() || !bitsEqual(d.Data(), want.Data()) {
					t.Fatalf("%v: %s does not decode to the input's bits", variant, name)
				}
			}
			plan, planBack := b.NewKernelPlan(), back.NewKernelPlan()
			if !bitsEqual(plan.MulVecInto(nil, v, 1), planBack.MulVecInto(nil, v, 2)) {
				t.Fatalf("%v: A·v differs between the batch and its deserialized image", variant)
			}
			plan.Release()
			planBack.Release()
		}
	})
}
