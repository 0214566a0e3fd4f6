package storage

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toc/internal/formats"
	"toc/internal/matrix"
)

// buildPersistedStore ingests n batches into a sharded store under a
// budget that spills some of them, writes the manifest, and returns the
// store, the manifest path, and the dense originals for comparison.
func buildPersistedStore(t *testing.T, n int, budget int64) (*Store, string, []*matrix.Dense, [][]float64) {
	t.Helper()
	dir := t.TempDir()
	xs, ys := testBatches(t, n, 20, 12)
	s, err := NewStore(dir, "TOC", budget, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	manifest := filepath.Join(dir, "store.manifest")
	if err := s.WriteManifest(manifest); err != nil {
		t.Fatal(err)
	}
	return s, manifest, xs, ys
}

// assertStoreMatches checks that every batch a store serves carries the
// original compressed bytes (Serialize is the codec's wire image, so
// byte equality means the recovered batch is exactly what was stored)
// and the original labels.
func assertStoreMatches(t *testing.T, s *Store, xs []*matrix.Dense, ys [][]float64) {
	t.Helper()
	if s.NumBatches() != len(xs) {
		t.Fatalf("store has %d batches, want %d", s.NumBatches(), len(xs))
	}
	for i := range xs {
		c, y := s.Batch(i)
		if len(y) != len(ys[i]) {
			t.Fatalf("batch %d: %d labels, want %d", i, len(y), len(ys[i]))
		}
		for r, v := range ys[i] {
			if y[r] != v {
				t.Fatalf("batch %d label %d = %v, want %v", i, r, y[r], v)
			}
		}
		want := s.Encode(xs[i]).Serialize()
		got := c.Serialize()
		if len(got) != len(want) {
			t.Fatalf("batch %d serialized to %d bytes, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("batch %d differs from original at byte %d", i, j)
			}
		}
	}
}

func TestManifestCloseReopenRoundTrip(t *testing.T) {
	s, manifest, xs, ys := buildPersistedStore(t, 8, 1200)
	before := s.Stats()
	if before.SpilledBatches == 0 || before.ResidentBatches == 0 {
		t.Fatalf("test store must mix resident and spilled batches, got %+v", before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	after := r.Stats()
	if after.ResidentBatches != before.ResidentBatches || after.SpilledBatches != before.SpilledBatches ||
		after.ResidentBytes != before.ResidentBytes || after.SpilledBytes != before.SpilledBytes {
		t.Fatalf("recovered layout %+v differs from persisted %+v", after, before)
	}
	for i := 0; i < r.NumBatches(); i++ {
		if r.Resident(i) != s.Resident(i) {
			t.Fatalf("batch %d residency changed across reopen", i)
		}
	}
	assertStoreMatches(t, r, xs, ys)
}

func TestManifestKeepsFilesAcrossClose(t *testing.T) {
	s, manifest, _, _ := buildPersistedStore(t, 6, 2000)
	dir := filepath.Dir(manifest)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var spillFiles int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "toc-spill-") {
			spillFiles++
		}
	}
	if spillFiles == 0 {
		t.Fatal("Close removed the shard files of a persisted store")
	}
	// A second reopen+close cycle must also keep them.
	r, err := OpenStore(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(manifest); err != nil {
		t.Fatalf("second reopen failed: %v", err)
	}
}

// A crash between WriteManifest's write and its rename leaves a
// ".store.manifest.tmp-*" file beside the manifest. OpenStore removes
// that debris, and nothing else.
func TestOpenStoreRemovesManifestTemps(t *testing.T) {
	s, manifest, _, _ := buildPersistedStore(t, 6, 2000)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(manifest)
	debris := filepath.Join(dir, "."+filepath.Base(manifest)+".tmp-2187")
	other := filepath.Join(dir, ".ckpt-0000000000000032.toc.tmp-1")
	for _, p := range []string{debris, other} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenStore(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("OpenStore left %s: %v", filepath.Base(debris), err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("OpenStore removed %s: %v", filepath.Base(other), err)
	}
}

// A crash before the first manifest's rename leaves a temp file in a
// directory that has no manifest, so no OpenStore sweeps it: the resumed
// run re-ingests. Its WriteManifest removes the debris once its own
// manifest is in place, and nothing else.
func TestWriteManifestRemovesManifestTemps(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "store.manifest")
	debris := filepath.Join(dir, "."+filepath.Base(manifest)+".tmp-2187")
	keep := []string{
		filepath.Join(dir, ".ckpt-0000000000000032.toc.tmp-1"),
		filepath.Join(dir, ".other.manifest.tmp-7"),
	}
	for _, p := range append([]string{debris}, keep...) {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	xs, ys := testBatches(t, 4, 20, 12)
	s, err := NewStore(dir, "TOC", 2000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteManifest(manifest); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("WriteManifest left %s: %v", filepath.Base(debris), err)
	}
	for _, p := range append(keep, manifest) {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("WriteManifest removed %s: %v", filepath.Base(p), err)
		}
	}
}

// A sweep that cannot remove its debris (here a non-empty directory
// named like a manifest temp file) does not fail a manifest that is
// already durable: WriteManifest succeeds and the store stays
// persistent, so Close keeps the shard files the manifest names.
func TestWriteManifestSurvivesFailedSweep(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "store.manifest")
	stuck := filepath.Join(dir, "."+filepath.Base(manifest)+".tmp-1")
	if err := os.MkdirAll(filepath.Join(stuck, "full"), 0o755); err != nil {
		t.Fatal(err)
	}
	xs, ys := testBatches(t, 4, 20, 12)
	s, err := NewStore(dir, "TOC", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteManifest(manifest); err != nil {
		t.Fatalf("WriteManifest failed on an unremovable temp: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(stuck); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(manifest)
	if err != nil {
		t.Fatalf("Close removed the files of a persisted store: %v", err)
	}
	defer r.Close()
	assertStoreMatches(t, r, xs, ys)
}

func TestOpenStoreRejectsTruncatedShard(t *testing.T) {
	s, manifest, _, _ := buildPersistedStore(t, 8, 1500)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate one shard file below its manifest write position.
	dir := filepath.Dir(manifest)
	entries, _ := os.ReadDir(dir)
	var truncated bool
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "toc-spill-") {
			p := filepath.Join(dir, e.Name())
			fi, _ := os.Stat(p)
			if err := os.Truncate(p, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
			truncated = true
			break
		}
	}
	if !truncated {
		t.Fatal("no shard file found to truncate")
	}
	if _, err := OpenStore(manifest); err == nil {
		t.Fatal("OpenStore accepted a truncated shard file")
	} else if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want a truncation error, got: %v", err)
	}
}

func TestOpenStoreRejectsBitFlippedShard(t *testing.T) {
	s, manifest, _, _ := buildPersistedStore(t, 8, 1500)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(manifest)
	entries, _ := os.ReadDir(dir)
	var flipped bool
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "toc-spill-") {
			p := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				continue
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no shard file found to corrupt")
	}
	if _, err := OpenStore(manifest); err == nil {
		t.Fatal("OpenStore accepted a bit-flipped shard file")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("want a CRC error, got: %v", err)
	}
}

func TestOpenStoreRejectsCorruptManifest(t *testing.T) {
	s, manifest, _, _ := buildPersistedStore(t, 4, 1500)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)/2] ^= 0x80; return b }, // bit flip
		func(b []byte) []byte { return b[:len(b)-3] },           // truncation
		func(b []byte) []byte { copy(b[:4], "NOPE"); return b }, // wrong magic
		func(b []byte) []byte { return nil },                    // empty
	} {
		bad := mutate(append([]byte(nil), img...))
		if err := os.WriteFile(manifest, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(manifest); err == nil {
			t.Fatal("OpenStore accepted a corrupt manifest")
		}
	}
}

func TestBatchReadVerifiesSpanCRC(t *testing.T) {
	s, manifest, _, _ := buildPersistedStore(t, 8, 1500)
	defer s.Close()
	_ = manifest
	// Find a spilled batch and flip one byte of its span on disk; the
	// next Batch read must panic loudly rather than decode bad bytes.
	var victim = -1
	for i := 0; i < s.NumBatches(); i++ {
		if !s.Resident(i) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no spilled batch")
	}
	sp := s.spans[victim]
	sh := s.shards[sp.shard]
	buf := make([]byte, 1)
	if _, err := sh.file.ReadAt(buf, sp.off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x04
	if _, err := sh.file.WriteAt(buf, sp.off); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Batch served a corrupt span without panicking")
		}
		// The panic value is the typed permanent-read failure, with the
		// CRC mismatch as its cause after the retry loop re-read the
		// same rotten bytes every attempt.
		re, ok := r.(*ReadError)
		if !ok {
			t.Fatalf("want a *ReadError panic, got %T: %v", r, r)
		}
		if re.Batch != victim {
			t.Fatalf("ReadError.Batch = %d, want %d", re.Batch, victim)
		}
		if !strings.Contains(re.Error(), "CRC") {
			t.Fatalf("want a CRC cause, got: %v", re)
		}
	}()
	s.Batch(victim)
}

func TestManifestPreservesLabelsBitwise(t *testing.T) {
	s, manifest, _, ys := buildPersistedStore(t, 5, 2000)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := range ys {
		_, y := r.Batch(i)
		for j := range y {
			if math.Float64bits(y[j]) != math.Float64bits(ys[i][j]) {
				t.Fatalf("batch %d label %d not bitwise identical", i, j)
			}
		}
	}
}

// A store written before the current TOC image version is refused up
// front: testdata/store-v2.manifest is the manifest a version-2 build
// wrote (before TOC images held D in resident form), and
// store-v3.manifest one a version-3 build wrote (before an image of
// all-distinct values dropped its index section), each over two spilled
// 20-row imagenet batches in shard directory gen/shards, which is not
// there. OpenStore names the version before it opens any shard file.
func TestOpenStoreRefusesOldManifestVersion(t *testing.T) {
	for _, v := range []int{2, 3} {
		img, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("store-v%d.manifest", v)))
		if err != nil {
			t.Fatal(err)
		}
		manifest := filepath.Join(t.TempDir(), "store.manifest")
		if err := os.WriteFile(manifest, img, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err = OpenStore(manifest)
		if want := fmt.Sprintf("unsupported manifest version %d, want 4", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("OpenStore of a version-%d store: %v, want an error containing %q", v, err, want)
		}
	}
}

// The manifest image is pinned byte for byte: a two-shard layout with
// one resident batch (its backup span) and one spilled batch, CRC-32
// (IEEE) of the whole image, trailer included. The shards name no file,
// so the pin holds on any machine (decodeManifest would refuse them).
func TestManifestGoldenCRC(t *testing.T) {
	s := &Store{
		method:   "TOC",
		budget:   1 << 20,
		shards:   []*shard{{wpos: 300, bytes: 200}, {wpos: 0}},
		resident: []formats.CompressedMatrix{&formats.DEN{}, nil},
		spans:    []span{{}, {shard: 0, off: 100, length: 200, crc: 0xdeadbeef}},
		resSpans: []span{{shard: 0, off: 0, length: 100, crc: 0x01020304}, {}},
		sizes:    []int64{100, 200},
		labels:   [][]float64{{1, -1, 0.5}, {}},
	}
	if got, want := crc32.ChecksumIEEE(s.encodeManifest()), uint32(0xf8132d43); got != want {
		t.Fatalf("manifest CRC %#08x, want %#08x", got, want)
	}
}
