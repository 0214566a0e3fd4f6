package storage

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"toc/internal/data"
	"toc/internal/formats"
	"toc/internal/matrix"
	"toc/internal/ml"
)

// A 4-shard store must spread its spill across four files, keep the
// placement byte-balanced, and round-trip every batch.
func TestShardedSpillRoundTripAndBalance(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, "TOC", 1, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d", s.Shards())
	}
	xs, ys := testBatches(t, 16, 20, 10)
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 4 {
		t.Fatalf("expected 4 spill files, found %d", len(entries))
	}
	var maxBatch, minShard, maxShard int64
	for i := range xs {
		if l := s.spans[i].length; l > maxBatch {
			maxBatch = l
		}
	}
	for i, b := range s.ShardBytes() {
		if b == 0 {
			t.Fatalf("shard %d received no bytes", i)
		}
		if minShard == 0 || b < minShard {
			minShard = b
		}
		if b > maxShard {
			maxShard = b
		}
	}
	// Least-loaded placement keeps shards within one batch of each other.
	if maxShard-minShard > maxBatch {
		t.Fatalf("shard imbalance %d exceeds max batch size %d: %v",
			maxShard-minShard, maxBatch, s.ShardBytes())
	}
	for i := range xs {
		if got := s.ShardOf(i); got < 0 || got >= 4 {
			t.Fatalf("ShardOf(%d) = %d", i, got)
		}
		c, y := s.Batch(i)
		if !c.Decode().Equal(xs[i]) {
			t.Fatalf("batch %d content mismatch across shards", i)
		}
		for k := range y {
			if y[k] != ys[i][k] {
				t.Fatalf("batch %d labels mismatch", i)
			}
		}
	}
}

// WithShardDirs places one spill file per directory — the N-device layout.
func TestShardDirsPlaceFilesPerDirectory(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	s, err := NewStore("", "TOC", 1, WithShardDirs(dirA, dirB))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Shards() != 2 {
		t.Fatalf("Shards() = %d, want len(dirs)", s.Shards())
	}
	xs, ys := testBatches(t, 6, 10, 8)
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{dirA, dirB} {
		entries, _ := os.ReadDir(dir)
		if len(entries) != 1 {
			t.Fatalf("dir %s holds %d spill files, want 1", dir, len(entries))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{dirA, dirB} {
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("Close left spill files in %s", dir)
		}
	}
}

// Training through a 4-shard spilled store must produce the same model as
// training fully in memory — sharding changes placement, never contents.
func TestShardedTrainingMatchesMemory(t *testing.T) {
	d, err := data.Generate("census", 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	d.ShuffleOnce(10)

	ref, _ := ml.NewModel("lr", d.X.Cols(), d.Classes, 1, 1)
	memSrc := ml.NewMemorySource(d, 50, formats.MustGetCodec("TOC").Encode)
	ml.Train(ref, memSrc, 3, 0.2, nil)

	s, err := NewStore(t.TempDir(), "TOC", 0, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < d.NumBatches(50); i++ {
		x, y := d.Batch(i, 50)
		if err := s.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	m2, _ := ml.NewModel("lr", d.X.Cols(), d.Classes, 1, 1)
	ml.Train(m2, s, 3, 0.2, nil)

	w1 := ref.(*ml.Linear).P
	w2 := m2.(*ml.Linear).P
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weights diverge at %d: %v vs %v", i, w1[i], w2[i])
		}
	}
}

// Hammer concurrent reads across shards through a configured disk model
// (bandwidth and access latency, so every read takes the model's lock)
// while stats are read, under -race. Pinned to two Ps so goroutines
// genuinely interleave the way CI's GOMAXPROCS=2 pass expects.
func TestShardedConcurrentReadsAndConfigRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s, err := NewStore(t.TempDir(), "TOC", 1, WithShards(4),
		WithReadBandwidth(1<<30), WithAccessLatency(time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 12
	for b := 0; b < n; b++ {
		x := matrix.NewDense(4, 6)
		for i := 0; i < 4; i++ {
			for j := 0; j < 6; j++ {
				x.Set(i, j, float64((b+i*j)%5))
			}
		}
		if err := s.Add(x, []float64{0, 1, 0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				i := (g + r*5) % n
				c, y := s.Batch(i)
				if c.Rows() != 4 || len(y) != 4 {
					t.Errorf("batch %d: rows=%d labels=%d", i, c.Rows(), len(y))
				}
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if got := s.Stats().Reads; got != 8*6 {
		t.Fatalf("Reads = %d, want %d", got, 8*6)
	}
}

// The writeback hints cover a shard's bytes in order: after any sequence
// of writes, the ranges run contiguously from 0 without overlap, each is
// at least writebackChunk long, none ends past wpos, and what is left
// unhinted is less than one chunk.
func TestNextWritebackRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	seqs := [][]int64{
		{1}, // never a chunk
		{writebackChunk - 1, 1, 1},
		{3*writebackChunk + 5, 10}, // one image larger than the chunk
		{writebackChunk / 3, 5 * writebackChunk, writebackChunk / 2, writebackChunk / 2},
	}
	for k := 0; k < 20; k++ {
		seq := make([]int64, 1+rng.Intn(300))
		for i := range seq {
			seq[i] = 1 + rng.Int63n(writebackChunk/4)
			if rng.Intn(50) == 0 {
				seq[i] = writebackChunk + rng.Int63n(3*writebackChunk)
			}
		}
		seqs = append(seqs, seq)
	}
	for si, seq := range seqs {
		var sh shard
		var end int64 // where the next range must start
		for _, size := range seq {
			sh.wpos += size
			off, n, ok := sh.nextWriteback()
			if !ok {
				continue
			}
			if off != end || n < writebackChunk || off+n > sh.wpos {
				t.Fatalf("sequence %d: range [%d, %d) after %d hinted bytes, wpos %d",
					si, off, off+n, end, sh.wpos)
			}
			end = off + n
		}
		if sh.wpos-end >= writebackChunk {
			t.Fatalf("sequence %d: %d of %d bytes never hinted", si, sh.wpos-end, sh.wpos)
		}
	}
}

// writeSpan hands its ranges to the real call: the images land intact
// and the shard's hint mark ends where nextWriteback put it.
func TestWriteSpanHintsWriteback(t *testing.T) {
	s, err := NewStore(t.TempDir(), "TOC", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var want []byte
	for _, size := range []int{writebackChunk / 2, writebackChunk / 2, 3 * writebackChunk, 7} {
		img := make([]byte, size)
		for i := range img {
			img[i] = byte(i*7 + size)
		}
		if _, err := s.writeSpan(0, img); err != nil {
			t.Fatal(err)
		}
		want = append(want, img...)
	}
	if sh := s.shards[0]; sh.hinted != sh.wpos-7 {
		t.Fatalf("hinted through %d of %d bytes, want all but the last 7", sh.hinted, sh.wpos)
	}
	got, err := os.ReadFile(s.shards[0].file.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the shard file differs from the images written to it")
	}
}
