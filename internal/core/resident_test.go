package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"toc/internal/data"
	"toc/internal/matrix"
	"toc/internal/testutil"
)

// A resident batch keeps no image: Serialize writes one from (I, D) on
// every call. These tests pin what that must not change — the bytes of
// every image, and CompressedSize as their length — and what it is for,
// the live heap a resident batch costs.

// imageGolden is the CRC-32 (IEEE) of Serialize() for one 250-row batch
// (seed 1) of every generator and variant, in the order compressed,
// Scale(3), Scale(0), and Deserialize of the compressed image. Scale(0)
// collapses the value dictionary to the two zeros, so the image length
// it reports differs from the batch it came from.
var imageGolden = map[string][4]uint32{
	"census/TOC_FULL":                 {0x55cd45d7, 0xa57750b5, 0xebb27f3f, 0x55cd45d7},
	"census/TOC_SPARSE_AND_LOGICAL":   {0x0d810810, 0x356f3cb2, 0x58a2b490, 0x0d810810},
	"imagenet/TOC_FULL":               {0x7ce60231, 0x1d3e4ce0, 0xf8eb04d6, 0x7ce60231},
	"imagenet/TOC_SPARSE_AND_LOGICAL": {0x5e24662c, 0x44e08e2a, 0xf8d9b001, 0x5e24662c},
	"mnist/TOC_FULL":                  {0xc810117e, 0x14a3ba9b, 0xaba8a55b, 0xc810117e},
	"mnist/TOC_SPARSE_AND_LOGICAL":    {0x2711afa4, 0x86bc4a03, 0x9918cc4e, 0x2711afa4},
	"kdd99/TOC_FULL":                  {0xb7658c8f, 0x5aeac53b, 0x4075e0be, 0xb7658c8f},
	"kdd99/TOC_SPARSE_AND_LOGICAL":    {0xdf4244ea, 0xac19ae55, 0xc916e73f, 0xdf4244ea},
	"rcv1/TOC_FULL":                   {0x73bbf59b, 0xc689f295, 0x5aa12e4c, 0x73bbf59b},
	"rcv1/TOC_SPARSE_AND_LOGICAL":     {0x8e508ce9, 0x8c6247c9, 0x313251b9, 0x8e508ce9},
	"deep1b/TOC_FULL":                 {0x0ba1fd38, 0x7b963126, 0xe57d35ad, 0x0ba1fd38},
	"deep1b/TOC_SPARSE_AND_LOGICAL":   {0x00f2d054, 0x212be32d, 0x1379b2ac, 0x00f2d054},
}

func TestImageGoldenCRC(t *testing.T) {
	got := map[string][4]uint32{}
	for _, name := range data.Names() {
		ds, err := data.Generate(name, 250, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range allVariants {
			b := CompressVariant(ds.X, v)
			back, err := Deserialize(b.Serialize())
			if err != nil {
				t.Fatalf("%s/%v: %v", name, v, err)
			}
			var sums [4]uint32
			for k, x := range []*Batch{b, b.Scale(3), b.Scale(0), back} {
				img := x.Serialize()
				if x.CompressedSize() != len(img) {
					t.Errorf("%s/%v batch %d: CompressedSize %d, image %d bytes", name, v, k, x.CompressedSize(), len(img))
				}
				sums[k] = crc32.ChecksumIEEE(img)
			}
			tag := fmt.Sprintf("%s/%v", name, v)
			got[tag] = sums
			if want, ok := imageGolden[tag]; !ok || sums != want {
				t.Errorf("%s: image CRCs %08x, want %08x", tag, sums, want)
			}
		}
	}
	if t.Failed() {
		for _, name := range data.Names() {
			for _, v := range allVariants {
				tag := fmt.Sprintf("%s/%v", name, v)
				fmt.Printf("\t%q: {%#08x, %#08x, %#08x, %#08x},\n", tag, got[tag][0], got[tag][1], got[tag][2], got[tag][3])
			}
		}
	}
}

// What a resident batch costs in live heap per byte of its image, over
// 400 benchmark-shaped batches of each generator the benchmark keeps in
// RAM: I's columns with the tuple starts, I's values, the 16-bit D′ and
// the creation bitmap, and no image. Each batch is generated on its own,
// so the dense rows are garbage by the time the heap is read. The bounds
// are the measured 1.21 and 3.19 plus about 5%; I as a []Pair, 16 bytes
// a pair, measures 1.42 and 3.90.
func TestResidentHeapPerCompressedByte(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow memory is not the heap this pins")
	}
	for _, c := range []struct {
		name  string
		bound float64
	}{{"imagenet", 1.3}, {"mnist", 3.4}} {
		const batches = 400
		keep := make([]*Batch, 0, batches)
		var stored int
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for k := 0; k < batches; k++ {
			ds, err := data.Generate(c.name, 250, int64(k+1))
			if err != nil {
				t.Fatal(err)
			}
			b := Compress(ds.X)
			stored += b.CompressedSize()
			keep = append(keep, b)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		ratio := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(stored)
		runtime.KeepAlive(keep)
		t.Logf("%s: %d batches, %d image bytes, %.2f heap bytes per image byte", c.name, batches, stored, ratio)
		if ratio > c.bound {
			t.Errorf("%s: a resident batch holds %.2f heap bytes per image byte, want <= %.1f", c.name, ratio, c.bound)
		}
	}
}

// boundaryMatrix returns a matrix whose batch's live tree has exactly
// nodes nodes: 40 rows built from three templates over small integer
// values, whose repeats leave live deep nodes, then rows of pairs seen
// nowhere else — (column c, value 1000+row) — each of which adds one
// first-layer node and no live deep one, as many as it takes. Every value
// and every product and sum the kernels form from small integer operands
// is an integer far below 2^53, so any fold order gives the same bits.
func boundaryMatrix(t testing.TB, nodes int) *matrix.Dense {
	t.Helper()
	const cols, baseRows = 256, 40
	base := matrix.NewDense(baseRows, cols)
	for i := 0; i < baseRows; i++ {
		for j := 0; j < cols; j++ {
			if (i%3+j)%4 != 0 {
				base.Set(i, j, float64(1+(i%3*j)%6))
			}
		}
		base.Set(i, i, 7) // one perturbed cell a row
	}
	b := Compress(base)
	pad := nodes - (1 + b.i.len() + b.d.live)
	if pad < 0 {
		t.Fatalf("the base rows alone have a live tree of %d nodes, more than %d", 1+b.i.len()+b.d.live, nodes)
	}
	m := matrix.NewDense(baseRows+(pad+cols-1)/cols, cols)
	copy(m.Data(), base.Data())
	for k := 0; k < pad; k++ {
		r := k / cols
		m.Set(baseRows+r, k%cols, float64(1000+r))
	}
	b = Compress(m)
	if got := 1 + b.i.len() + b.d.live; got != nodes || b.d.live == 0 {
		t.Fatalf("boundary fixture has a live tree of %d nodes, %d of them deep; want %d, some deep", got, b.d.live, nodes)
	}
	return m
}

// widened returns b with D′ held as 32-bit codes, everything else shared:
// the same batch as the other generic instantiation runs it.
func widened(b *Batch) *Batch {
	c := *b
	c.d.narrow, c.d.wide = nil, slices.Clone(residentCodes(b))
	return &c
}

// At the width boundary — a live tree of exactly 1<<16 nodes, whose
// largest live id 65535 still fits 16 bits, and one node more — the batch
// picks the width, and every kernel, Decode and the image equal DEN's at
// the width picked, and at 32 bits for the tree that fits 16.
func TestResidentWidthBoundary(t *testing.T) {
	for _, c := range []struct {
		nodes int
		wide  bool
	}{{1 << 16, false}, {1<<16 + 1, true}} {
		m := boundaryMatrix(t, c.nodes)
		b := Compress(m)
		if b.d.isWide() != c.wide {
			t.Fatalf("%d nodes: D′ wide=%v, want %v", c.nodes, b.d.isWide(), c.wide)
		}
		back, err := Deserialize(b.Serialize())
		if err != nil {
			t.Fatalf("%d nodes: %v", c.nodes, err)
		}
		if back.d.isWide() != c.wide || !slices.Equal(residentCodes(back), residentCodes(b)) {
			t.Fatalf("%d nodes: the image deserializes to another D′", c.nodes)
		}
		const p = 3
		v, u := make([]float64, m.Cols()), make([]float64, m.Rows())
		for j := range v {
			v[j] = float64(j%5 - 2)
		}
		for i := range u {
			u[i] = float64(i%7 - 3)
		}
		mr, ml := matrix.NewDense(m.Cols(), p), matrix.NewDense(p, m.Rows())
		for k := range mr.Data() {
			mr.Data()[k] = float64(k%9 - 4)
		}
		for k := range ml.Data() {
			ml.Data()[k] = float64(k%11 - 5)
		}
		wantImg := b.Serialize()
		for name, x := range map[string]*Batch{"batch": b, "widened": widened(b)} {
			tag := fmt.Sprintf("%d nodes, %s", c.nodes, name)
			if !x.Decode().Equal(m) {
				t.Fatalf("%s: Decode differs from the input", tag)
			}
			if !bitsEqual(x.MulVec(v), m.MulVec(v)) || !bitsEqual(x.VecMul(u), m.VecMul(u)) {
				t.Fatalf("%s: A·v or v·A differs from DEN's bits", tag)
			}
			for _, workers := range []int{1, 2} {
				plan := x.NewKernelPlan()
				if !bitsEqual(plan.MulMatInto(nil, mr, workers).Data(), m.MulMat(mr).Data()) ||
					!bitsEqual(plan.MatMulInto(nil, ml, workers).Data(), m.MatMul(ml).Data()) {
					t.Fatalf("%s workers=%d: A·M or M·A differs from DEN's bits", tag, workers)
				}
				plan.Release()
			}
			if img := x.Serialize(); !bytes.Equal(img, wantImg) || x.CompressedSize() != len(img) {
				t.Fatalf("%s: image of %d bytes (CompressedSize %d) differs from the batch's", tag, len(img), x.CompressedSize())
			}
		}
	}
}
