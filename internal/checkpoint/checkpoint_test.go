package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sampleState builds a representative snapshot; variant tweaks the
// fields so distinct samples stay distinct.
func sampleState(variant int) *State {
	s := &State{
		Kind:        KindLocal,
		Seed:        42 + int64(variant),
		LR:          0.3,
		Group:       8,
		NumBatches:  16,
		Epoch:       2,
		Pos:         8,
		PartialLoss: 1.25,
		EpochLoss:   []float64{0.9, 0.7},
		Params:      []float64{1, -2.5, math.Pi, 0},
	}
	switch variant {
	case 1:
		s.Deterministic = true
		s.Group = 1
		s.Staleness = 4
		s.Clock = 40
		s.Archive = [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	case 2:
		s.Kind = KindDist
		s.Group = 0
		s.Staleness = -1
		s.Clock = 7
		s.EpochLoss = nil
		s.Params = nil
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for v := 0; v < 3; v++ {
		in := sampleState(v)
		img := Encode(in)
		out, err := Decode(img)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("variant %d: round trip mismatch\n in: %+v\nout: %+v", v, in, out)
		}
		// Canonical encoding: re-encoding the decoded state reproduces
		// the image byte for byte.
		if !bytes.Equal(img, Encode(out)) {
			t.Fatalf("variant %d: re-encode differs from original image", v)
		}
	}
}

// encodeGolden is the CRC-32 (IEEE) of Encode(sampleState(v)) for each
// variant v: the checkpoint image is pinned byte for byte.
var encodeGolden = [3]uint32{0xddc66549, 0x9c9e3ea0, 0x0ad1e048}

func TestEncodeGoldenCRC(t *testing.T) {
	for v, want := range encodeGolden {
		if got := crc32.ChecksumIEEE(Encode(sampleState(v))); got != want {
			t.Errorf("variant %d: image CRC %#08x, want %#08x", v, got, want)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	img := Encode(sampleState(1))
	if _, err := Decode(img[:len(img)-1]); err == nil {
		t.Error("truncated image decoded")
	}
	if _, err := Decode(img[:10]); err == nil {
		t.Error("header-only image decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty image decoded")
	}
	// Flip one bit in every byte position; every mutation must be
	// rejected (CRC or structural check), never silently accepted.
	for i := range img {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0x10
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded without error", i)
		}
	}
	// Flag bit 0 marked a shuffled run. Epochs only scan in ingest order
	// now, so an image asking for anything else is refused even with a
	// valid CRC, not resumed as if it were in order.
	shuffled := append([]byte(nil), img[:len(img)-trailerLen]...)
	shuffled[6] |= 1
	shuffled = binary.LittleEndian.AppendUint32(shuffled, crc32.Checksum(shuffled, castagnoli))
	if _, err := Decode(shuffled); err == nil || !strings.Contains(err.Error(), "unknown flags") {
		t.Fatalf("image with flag bit 0 set: err = %v, want unknown flags", err)
	}
}

// Kind byte 2 is unassigned: an image carrying it is refused as an
// unknown kind even with a valid CRC, never resumed as a local or dist
// run.
func TestDecodeRejectsUnassignedKind(t *testing.T) {
	img := Encode(sampleState(1))
	body := append([]byte(nil), img[:len(img)-trailerLen]...)
	body[5] = 2
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	if _, err := Decode(body); err == nil || !strings.Contains(err.Error(), "unknown engine kind 2") {
		t.Fatalf("image with kind byte 2: err = %v, want unknown engine kind", err)
	}
}

// claimImage is a one-epoch-loss image whose header is patched to claim
// nParams parameters and nArchive archived versions, resealed with a valid
// CRC: 84 bytes that back none of the claim.
func claimImage(nParams, nArchive uint32) []byte {
	img := Encode(&State{Kind: KindLocal, EpochLoss: []float64{0.5}})
	body := img[:len(img)-trailerLen]
	binary.LittleEndian.PutUint32(body[headerLen-8:], nParams)
	binary.LittleEndian.PutUint32(body[headerLen-4:], nArchive)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// An image whose lengths claim more than its bytes hold is refused
// before anything is sized by the claim. The wrapped image is 84 bytes
// with a valid CRC: 8·(1 + 2^31 + (2^30−1)·2^31) wraps to 8 in uint64, so
// a length check summed in uint64 read it as exactly its own size and
// Decode then asked for 16 GiB of params. The empty-model archive claims
// 2^32−1 versions of zero params each, which no byte count bounds.
func TestDecodeRejectsHugeClaimedLengths(t *testing.T) {
	absurd := Encode(sampleState(0))
	for i := headerLen - 8; i < headerLen-4; i++ {
		absurd[i] = 0xff
	}
	for name, img := range map[string][]byte{
		"absurd param count":  absurd,
		"wrapped length":      claimImage(1<<31, 1<<30-1),
		"empty-model archive": claimImage(0, math.MaxUint32),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(img)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: allocated %d bytes before refusing it: %v", name, got, err)
		}
	}
}

func TestSaveLoadLatest(t *testing.T) {
	dir := t.TempDir()
	for step, v := range []int{0, 1} {
		s := sampleState(v)
		s.Pos = step // distinct Step() values
		if err := Save(filepath.Join(dir, FileName(s.Step())), s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Deterministic {
		t.Fatalf("Latest returned step %d, want the delayed-gradient variant", got.Step())
	}
	// No checkpoints → os.ErrNotExist.
	if _, err := Latest(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Latest on empty dir: %v, want not-exist", err)
	}
}

func TestLatestFailsLoudlyOnCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	good := sampleState(0)
	if err := Save(filepath.Join(dir, FileName(good.Step())), good); err != nil {
		t.Fatal(err)
	}
	// A newer, corrupt checkpoint: Latest must error, not fall back.
	bad := Encode(sampleState(0))
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, FileName(good.Step()+100)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Latest(dir); err == nil {
		t.Fatal("Latest returned an older checkpoint instead of failing on the corrupt newest")
	}
}

func TestWriterSaveAsyncAndPrune(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.SetKeep(2)
	for i := 0; i < 6; i++ {
		s := sampleState(0)
		s.Epoch, s.Pos = 0, i
		w.SaveAsync(s)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retained %d files, want 2 (keep)", len(entries))
	}
	got, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != 5 {
		t.Fatalf("latest pos = %d, want 5", got.Pos)
	}
}

func TestWriterCoalesces(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Burst of snapshots without an intervening Flush: intermediate
	// ones may be dropped, but the final Flush must persist the newest.
	for i := 0; i < 50; i++ {
		s := sampleState(0)
		s.Epoch, s.Pos = 1, i
		w.SaveAsync(s)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != 49 {
		t.Fatalf("after flush the newest snapshot is pos %d, want 49", got.Pos)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterSynchronousMode(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetSynchronous(true)
	s := sampleState(0)
	w.SaveAsync(s)
	// Synchronous mode: the file exists the moment SaveAsync returns.
	if _, err := os.Stat(filepath.Join(dir, FileName(s.Step()))); err != nil {
		t.Fatalf("synchronous SaveAsync did not write immediately: %v", err)
	}
}

// A run's final synchronous Save lands while the background writer is
// still pruning after a cadence snapshot; the two must not race to
// remove the same oldest file.
func TestWriterSaveConcurrentWithSaveAsync(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.SetKeep(1)
	for i := 0; i < 200; i += 2 {
		a, b := sampleState(0), sampleState(0)
		a.Pos, b.Pos = i, i+1
		w.SaveAsync(a)
		if err := w.Save(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
