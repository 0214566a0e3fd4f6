package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"toc/internal/data"
	"toc/internal/matrix"
	"toc/internal/testutil"
)

// The kernel steady state allocates nothing but the result buffer: the
// plan and its decode tree come from the plan pool and every accumulator
// from the shared scratch pool. These tests pin that property — a kernel
// change that starts allocating per call (a lost pool hit, a tree built
// outside the pool) fails here long before it shows up as a throughput
// regression.
//
// AllocsPerRun runs at GOMAXPROCS(1); the sequential (workers=1) path is
// the one measured. Sharded calls spawn goroutines, which allocate by
// design — but a fixed amount, whatever the operand's size.

func TestKernelPlanSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pool-hit pin cannot hold")
	}
	rng := rand.New(rand.NewSource(900))
	rows, cols := 64, 16
	for name, b := range rightMulBatches(rng, rows, cols) {
		plan := b.NewKernelPlan()
		vr := randVec(rng, cols)
		vl := randVec(rng, rows)
		mr := matrix.NewDense(cols, 4)
		fillRand(rng, mr)
		ml := matrix.NewDense(4, rows)
		fillRand(rng, ml)

		// One allocation: the result slice. Everything else is pooled.
		if got := testing.AllocsPerRun(50, func() { plan.MulVecInto(nil, vr, 1) }); got > 1 {
			t.Errorf("%s: MulVec allocates %.0f objects/op, want <= 1 (the result)", name, got)
		}
		if got := testing.AllocsPerRun(50, func() { plan.VecMulInto(nil, vl, 1) }); got > 1 {
			t.Errorf("%s: VecMul allocates %.0f objects/op, want <= 1 (the result)", name, got)
		}
		// Matrix results are a Dense header plus its backing array.
		if got := testing.AllocsPerRun(50, func() { plan.MulMatInto(nil, mr, 1) }); got > 2 {
			t.Errorf("%s: MulMat allocates %.0f objects/op, want <= 2 (the result)", name, got)
		}
		if got := testing.AllocsPerRun(50, func() { plan.MatMulInto(nil, ml, 1) }); got > 2 {
			t.Errorf("%s: MatMul allocates %.0f objects/op, want <= 2 (the result)", name, got)
		}
		plan.Release()

		// The Batch methods and Decode are a plan used once: plan and tree
		// come back out of the pool, so they too allocate only the result.
		for _, c := range []struct {
			op   string
			call func()
			max  float64
		}{
			{"MulVec", func() { b.MulVec(vr) }, 1},
			{"VecMul", func() { b.VecMul(vl) }, 1},
			{"MulMat", func() { b.MulMat(mr) }, 2},
			{"MatMul", func() { b.MatMul(ml) }, 2},
			{"Decode", func() { b.Decode() }, 2},
		} {
			if got := testing.AllocsPerRun(50, c.call); got > c.max {
				t.Errorf("%s: Batch.%s allocates %.0f objects/op, want <= %.0f (the result)", name, c.op, got, c.max)
			}
		}
	}
}

// A sharded M·A into a caller-owned dst allocates what its goroutines
// cost and nothing that grows with p: the H table and every shard's slice
// of the column gather come from the scratch pool. A per-shard gather
// buffer made on every call would show up here as 8·p bytes.
func TestShardedMatMulAllocBytesIndependentOfP(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pool-hit pin cannot hold")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // one P, one pool shard
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection empties the pool mid-run
	rng := rand.New(rand.NewSource(910))
	const rows, cols, runs = 64, 16, 20
	b := Compress(redundantMatrix(rng, rows, cols, 0.9, 4))
	plan := b.NewKernelPlan()
	defer plan.Release()
	bytesPerCall := func(p int) int {
		m := matrix.NewDense(p, rows)
		fillRand(rng, m)
		dst := matrix.NewDense(p, cols)
		plan.MatMulInto(dst, m, 2) // grow the pooled scratch to this p
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			plan.MatMulInto(dst, m, 2)
		}
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := bytesPerCall(8), bytesPerCall(512)
	if large-small >= 8*512/4 {
		t.Errorf("sharded MatMulInto allocates %d B/op at p=8 but %d B/op at p=512; want no growth with p", small, large)
	}
}

// Deserialize sits on the spilled read path, once per visit: what it
// allocates beyond the arrays the Batch keeps is garbage the collector
// has to chase on every step. So it allocates exactly the five objects
// the batch keeps — the Batch, I's words with the tuple starts, the
// value dictionary, D′ and the creation bitmap; the image it aliases is
// the caller's — and no more bytes than five objects of those sizes
// cost, size-class rounding included, on the benchmark's batch shape: 5
// objects and 40 KB on imagenet. A section read into a heap object, a
// window of I staged in slices of its own, or D′ unpacked anywhere but
// the batch's own array breaks it. Read into the memory of a batch
// Recycle took back, it allocates nothing at all.
func TestDeserializeAllocBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pool-hit pin cannot hold")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // one P, one pool shard
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection empties the pools mid-run
	// Two collections empty the pools, of batches earlier tests recycled
	// too: the five allocations below are a read with nothing to reuse.
	runtime.GC()
	runtime.GC()
	d, err := data.Generate("imagenet", 250, 1)
	if err != nil {
		t.Fatal(err)
	}
	img := Compress(d.X).Serialize()
	b, err := Deserialize(img)
	if err != nil {
		t.Fatal(err)
	}
	if b.d.isWide() {
		t.Fatal("a benchmark batch's D′ is 32 bits a code")
	}
	const runs = 50
	if got := testing.AllocsPerRun(runs, func() { Deserialize(img) }); got != 5 {
		t.Errorf("Deserialize allocates %.0f objects/op, want exactly 5 (what the Batch keeps)", got)
	}
	bytesPerRun := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	kept := []int{int(unsafe.Sizeof(Batch{})), 4 * (b.i.len() + len(b.d.starts)), 8 * len(b.i.vals), 2 * len(b.d.narrow), 8 * len(b.d.created)}
	want := bytesPerRun(func() {
		for _, n := range kept {
			allocSink = make([]byte, n)
		}
	})
	if got := bytesPerRun(func() { Deserialize(img) }); got > want {
		t.Errorf("Deserialize allocates %d B/op; objects of the sizes the batch keeps (%v B) cost %d", got, kept, want)
	}
	// Scale shares I's words and D′ with its receiver: it allocates the
	// Batch and a dictionary, and the encoder it merges entries in is
	// pooled.
	kept = []int{int(unsafe.Sizeof(Batch{})), 8 * len(b.i.vals)}
	want = bytesPerRun(func() {
		for _, n := range kept {
			allocSink = make([]byte, n)
		}
	})
	if got := bytesPerRun(func() { b.Scale(3) }); got > want {
		t.Errorf("Scale allocates %d B/op; objects of the sizes it keeps (%v B) cost %d", got, kept, want)
	}
	recycledRead := func() {
		b, err := Deserialize(img)
		if err != nil {
			t.Fatal(err)
		}
		b.Recycle()
	}
	if got := testing.AllocsPerRun(runs, recycledRead); got != 0 {
		t.Errorf("Deserialize into recycled memory allocates %.0f objects/op, want 0", got)
	}
}

// allocSink keeps TestDeserializeAllocBytes' reference allocations on
// the heap.
var allocSink []byte

// Compress sits on the ingest path, once per batch: everything Algorithm 1
// works in — both tables, the tuple rewrite, D in the paper's numbering,
// the physical layer's staging — is pooled encoder state, so the steady
// state allocates only what the Batch retains (the Batch, I's words
// with the tuple starts, the value dictionary, D′ and the creation
// bitmap; no image). And what it retains is copied out of the pooled scratch at
// exact length: append-grown capacity kept resident per batch is live
// heap that no byte count in the store's budget sees.
func TestCompressAllocs(t *testing.T) {
	d, err := data.Generate("imagenet", 250, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := Compress(d.X)
	if b.img != nil || b.d.isWide() {
		t.Fatalf("a compressed benchmark batch keeps an image (%v) or a 32-bit D′ (%v)", b.img != nil, b.d.isWide())
	}
	if b.i.isWide() {
		t.Fatal("a compressed benchmark batch holds 64-bit first-layer words")
	}
	words := b.i.narrow[:cap(b.i.narrow)]
	if len(words) != b.i.len()+len(b.d.starts) || &words[b.i.len()] != &b.d.starts[0] || cap(b.d.starts) != len(b.d.starts) ||
		cap(b.i.vals) != len(b.i.vals) || cap(b.d.narrow) != len(b.d.narrow) {
		t.Errorf("retained slices carry slack, or I's words and the starts are not one array: I %d/%d words %d/%d dictionary, D′ %d/%d, starts %d/%d (len/cap)",
			len(b.i.narrow), cap(b.i.narrow), len(b.i.vals), cap(b.i.vals), len(b.d.narrow), cap(b.d.narrow), len(b.d.starts), cap(b.d.starts))
	}
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pool-hit pin cannot hold")
	}
	if got := testing.AllocsPerRun(20, func() { Compress(d.X) }); got > 5 {
		t.Errorf("Compress allocates %.0f objects/op, want <= 5 (what the Batch retains)", got)
	}
}

// One encoder serves one Compress at a time and nothing a Batch holds
// aliases it: goroutines compressing the same batches concurrently, each
// cycling encoders through the pool, all produce the images a lone
// goroutine does.
func TestCompressConcurrentIdentical(t *testing.T) {
	const rows, batches, workers = 60, 16, 8
	d, err := data.Generate("imagenet", rows*batches, 3)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*matrix.Dense, batches)
	want := make([][]byte, batches)
	for k := range ms {
		ms[k], _ = d.Batch(k, rows)
		want[k] = Compress(ms[k]).Serialize()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range ms {
				k = (k + w) % batches // different batches in flight at once
				b := Compress(ms[k])
				if !bytes.Equal(b.Serialize(), want[k]) {
					t.Errorf("worker %d: batch %d compressed to a different image", w, k)
				}
				if !b.Decode().Equal(ms[k]) {
					t.Errorf("worker %d: batch %d does not decode to its input", w, k)
				}
			}
		}(w)
	}
	wg.Wait()
}
