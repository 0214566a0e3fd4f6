package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"testing"
)

// hugeCountManifest is a well-formed empty manifest (no shards, no
// batches) whose batch count is patched to 2^31-1 and whose CRC is then
// recomputed: 33 bytes that claim 2^31-1 batch records of at least 37
// bytes each.
func hugeCountManifest() []byte {
	img := (&Store{method: "TOC"}).encodeManifest()
	body := img[:len(img)-4]
	binary.LittleEndian.PutUint32(body[len(body)-4:], math.MaxInt32)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, spanTable))
}

// A manifest's CRC-32C catches accidents, not forgeries, so a manifest
// is untrusted input. Images with a valid CRC that claim more than their
// bytes can back must be refused before anything is sized by the claim:
// 2^31-1 batches sized five slices at tens of GiB, and a span longer than
// its shard file sized its read buffer — both a fatal, unrecoverable
// out-of-memory error, not even a panic.
func TestOpenStoreRefusesHostileManifest(t *testing.T) {
	s, manifest, _, _ := buildPersistedStore(t, 6, 1200)
	victim := -1
	for i := 0; i < s.NumBatches(); i++ {
		if !s.Resident(i) {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("no spilled batch")
	}
	s.spans[victim].length = 1 << 40
	longSpan := s.encodeManifest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{"huge batch count": hugeCountManifest(), "span past its shard": longSpan} {
		if err := os.WriteFile(manifest, img, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OpenStore(manifest)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: OpenStore accepted the manifest", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: OpenStore allocated %d bytes before refusing it: %v", name, got, err)
		}
	}
}

// FuzzManifestDecode drives decodeManifest with arbitrary bytes. The
// safety property is an error or a manifest, never a panic, and no slice
// sized by a count the bytes cannot back; the correctness property is
// that an accepted manifest names only spans inside the bytes their
// shard wrote, which is what bounds the reads OpenStore then makes. The
// committed corpus holds a real manifest, a truncated one and the
// huge-count image.
func FuzzManifestDecode(f *testing.F) {
	f.Add(hugeCountManifest())
	f.Fuzz(func(t *testing.T, img []byte) {
		checkDecodedManifest(t, img)
		// The CRC stops almost every mutation at the door; resealing the
		// mutated body lets the fuzzer reach the parser behind it.
		if len(img) >= 4 {
			body := img[: len(img)-4 : len(img)-4]
			checkDecodedManifest(t, binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, spanTable)))
		}
	})
}

func checkDecodedManifest(t *testing.T, img []byte) {
	m, err := decodeManifest(img)
	if err != nil {
		return
	}
	if records := len(m.shards)*minShardRecord + len(m.batches)*minBatchRecord; records > len(img) {
		t.Fatalf("%d shards and %d batches decoded from %d bytes", len(m.shards), len(m.batches), len(img))
	}
	for i, b := range m.batches {
		sh := m.shards[b.sp.shard]
		if b.sp.off < 0 || b.sp.length < 0 || b.sp.off+b.sp.length > sh.wpos {
			t.Fatalf("batch %d spans [%d, +%d) of a shard that wrote %d bytes", i, b.sp.off, b.sp.length, sh.wpos)
		}
	}
}
