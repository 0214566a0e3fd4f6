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
	"census/TOC_FULL":                 {0x08f8edf7, 0xa9fb2fff, 0x4fdf225e, 0x08f8edf7},
	"census/TOC_SPARSE_AND_LOGICAL":   {0x73e039d9, 0x30b8be15, 0x80e13800, 0x73e039d9},
	"imagenet/TOC_FULL":               {0xc279fe1e, 0x815c76d1, 0x75b12573, 0xc279fe1e},
	"imagenet/TOC_SPARSE_AND_LOGICAL": {0x093087cf, 0xb1d0fbdb, 0x092fee7e, 0x093087cf},
	"mnist/TOC_FULL":                  {0x1c8cfebb, 0xaf215af0, 0xb67f12d8, 0x1c8cfebb},
	"mnist/TOC_SPARSE_AND_LOGICAL":    {0xb38dd45a, 0x26b78aa4, 0xe2db36ea, 0xb38dd45a},
	"kdd99/TOC_FULL":                  {0x3f5bacc7, 0xbbea12ca, 0x63210743, 0x3f5bacc7},
	"kdd99/TOC_SPARSE_AND_LOGICAL":    {0x18987caf, 0x9a2fb260, 0x49bffafe, 0x18987caf},
	"rcv1/TOC_FULL":                   {0x679df4ef, 0x0ace846a, 0xb0e0ca29, 0x679df4ef},
	"rcv1/TOC_SPARSE_AND_LOGICAL":     {0x87b26bac, 0xb621e238, 0x3376785b, 0x87b26bac},
	"deep1b/TOC_FULL":                 {0x8b4d0f50, 0x15eb512b, 0x8943f992, 0x8b4d0f50},
	"deep1b/TOC_SPARSE_AND_LOGICAL":   {0x0ea70457, 0xd3d655dc, 0x5f144c0a, 0x0ea70457},
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

// What a resident batch costs in live heap per byte of its image and per
// byte of the dense rows it holds, over 400 benchmark-shaped batches of
// each generator the benchmark keeps in RAM: I's words with the tuple
// starts, the value dictionary, the 16-bit D′ and the creation bitmap,
// and no image. Each batch is generated on its own, so the dense rows
// are garbage by the time the heap is read.
//
// The heap is read after two collections: the first moves what
// sync.Pool holds (the encoder's tables) to its victim cache, the second
// drops it, so the reading is the batches' and steady run to run (one
// collection read 5–8% more in some runs).
//
// Per image byte the bounds are 1.4 (imagenet, measured 1.26) and 1.7
// (mnist, measured 1.44). Imagenet's measured 1.13 while its image
// stored an index section: every value is distinct, so the image now
// stores the values in pair order and no index, and is about 10%
// smaller while the heap is not. The per-dense-byte bounds are the heap
// measured before that change plus 5%, a denominator no image layout
// moves, so a batch that grows its heap is caught whatever its image
// does. I as a column and a value a pair measured 1.21 and 3.19 per
// image byte (index section included, one collection), and as a []Pair,
// 16 bytes a pair, 1.42 and 3.90.
func TestResidentHeapPerCompressedByte(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow memory is not the heap this pins")
	}
	for _, c := range []struct {
		name              string
		bound, denseBound float64
	}{{"imagenet", 1.4, 0.1176}, {"mnist", 1.7, 0.1638}} {
		const batches = 400
		keep := make([]*Batch, 0, batches)
		var stored, dense int
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for k := 0; k < batches; k++ {
			ds, err := data.Generate(c.name, 250, int64(k+1))
			if err != nil {
				t.Fatal(err)
			}
			b := Compress(ds.X)
			stored += b.CompressedSize()
			dense += b.UncompressedSize()
			keep = append(keep, b)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
		runtime.KeepAlive(keep)
		ratio, perDense := heap/float64(stored), heap/float64(dense)
		t.Logf("%s: %d batches, %d image bytes, %d dense bytes; %.2f heap bytes per image byte, %.4f per dense byte",
			c.name, batches, stored, dense, ratio, perDense)
		if ratio > c.bound {
			t.Errorf("%s: a resident batch holds %.2f heap bytes per image byte, want <= %.1f", c.name, ratio, c.bound)
		}
		if perDense > c.denseBound {
			t.Errorf("%s: a resident batch holds %.4f heap bytes per dense byte, want <= %.4f", c.name, perDense, c.denseBound)
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
