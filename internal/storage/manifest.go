package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"toc/internal/bitpack"
	"toc/internal/checkpoint"
	"toc/internal/formats"
)

// The per-shard manifest makes a spilled store crash-safe: it records
// the full batch layout — which shard file holds each spilled batch at
// which offset, every batch's labels, and a CRC per span — so a
// restarted process recovers the store from the shard files instead of
// re-ingesting the dataset. Resident batches are flushed to the shard
// files too (as "backup spans", accounted separately from the spill so
// stats and placement are unchanged), which is what makes the manifest
// sufficient: after WriteManifest every batch's bytes are on fsynced
// disk.
//
// Like the checkpoint format, the manifest is one little-endian image
// with the trailing CRC-32C of checkpoint.Seal, written by the one
// durable writer, checkpoint.WriteFile (temp + fsync + rename +
// directory fsync): a crash mid-write leaves the old manifest or none,
// never a torn one. OpenStore verifies the manifest CRC, each shard
// file's size, and — at recovery time, once — every span's CRC, so a
// truncated or bit-flipped shard file is a loud error, never silently
// wrong training data.
//
// The CRC catches accidents, not forgeries, so the manifest is untrusted
// input: decodeManifest reads it through bitpack.Reader, which bounds
// every count by the bytes left before anything is sized by it, and
// checks every span against its shard's write position before OpenStore
// reads it.

const (
	manifestMagic   = "TOCM"
	manifestVersion = 2

	// Smallest encodings of a shard record (two empty strings, wpos,
	// bytes) and of a batch record (flags, size, span, no labels): a
	// count larger than the bytes left divided by these is a lie.
	minShardRecord = 2 + 2 + 8 + 8
	minBatchRecord = 1 + 8 + 4 + 8 + 8 + 4 + 4
)

// WriteManifest persists the store's layout to path and flushes every
// resident batch to a shard file as its backup span. After it returns,
// the shard files are fsynced, the manifest is durably in place, and
// Close will keep the files (the store becomes persistent). Call it
// once ingest is complete, never concurrently with Batch.
func (s *Store) WriteManifest(path string) error {
	// Flush resident batches to backup spans. Placement balances file
	// sizes (wpos, which includes earlier backups), not the spill
	// accounting — backups are not spills. A second WriteManifest call
	// reuses spans already flushed.
	if s.resSpans == nil {
		s.resSpans = make([]span, len(s.resident))
	}
	for i, c := range s.resident {
		if c == nil || s.resSpans[i].length > 0 {
			continue
		}
		best := 0
		for j, sh := range s.shards {
			if sh.wpos < s.shards[best].wpos {
				best = j
			}
		}
		sp, err := s.writeSpan(best, c.Serialize())
		if err != nil {
			return fmt.Errorf("storage: back up resident batch %d: %w", i, err)
		}
		s.resSpans[i] = sp
	}
	for i, sh := range s.shards {
		if sh.file == nil {
			continue
		}
		if err := sh.file.Sync(); err != nil {
			return fmt.Errorf("storage: sync shard %d: %w", i, err)
		}
	}

	if err := checkpoint.WriteFile(path, s.encodeManifest(), "storage.manifest.rename"); err != nil {
		return fmt.Errorf("storage: manifest: %w", err)
	}
	s.persist = true
	return nil
}

// encodeManifest serializes the store layout (with trailing CRC-32C).
func (s *Store) encodeManifest() []byte {
	le := binary.LittleEndian
	var img []byte
	img = append(img, manifestMagic...)
	img = append(img, manifestVersion, 0, 0, 0)
	img = appendStr(img, s.method)
	img = le.AppendUint64(img, uint64(s.budget))
	img = le.AppendUint32(img, uint32(len(s.shards)))
	for _, sh := range s.shards {
		// The file's actual location, not the configured dir: a shard
		// configured with dir "" creates its file in the OS temp dir,
		// and recovery must find it where it really is.
		var dir, base string
		if sh.file != nil {
			dir = filepath.Dir(sh.file.Name())
			base = filepath.Base(sh.file.Name())
		}
		img = appendStr(img, dir)
		img = appendStr(img, base)
		img = le.AppendUint64(img, uint64(sh.wpos))
		img = le.AppendUint64(img, uint64(sh.bytes))
	}
	img = le.AppendUint32(img, uint32(len(s.resident)))
	for i := range s.resident {
		var flags byte
		sp := s.spans[i]
		if s.resident[i] != nil {
			flags |= 1
			sp = s.resSpans[i]
		}
		img = append(img, flags)
		img = le.AppendUint64(img, uint64(s.sizes[i]))
		img = le.AppendUint32(img, uint32(sp.shard))
		img = le.AppendUint64(img, uint64(sp.off))
		img = le.AppendUint64(img, uint64(sp.length))
		img = le.AppendUint32(img, sp.crc)
		img = le.AppendUint32(img, uint32(len(s.labels[i])))
		img = bitpack.AppendF64s(img, s.labels[i])
	}
	return checkpoint.Seal(img)
}

func appendStr(img []byte, s string) []byte {
	img = binary.LittleEndian.AppendUint16(img, uint16(len(s)))
	return append(img, s...)
}

// manifest is a decoded store manifest: the layout OpenStore rebuilds a
// store from.
type manifest struct {
	method  string
	budget  int64
	shards  []manifestShard
	batches []manifestBatch
}

// manifestShard is one shard file: where it is, how many bytes the store
// wrote to it, and how many of those are spills (the placement balance).
type manifestShard struct {
	dir, base   string
	wpos, bytes int64
}

// manifestBatch is one batch: whether it was resident (its span is then
// a backup), its compressed size, where its bytes are, and its labels.
type manifestBatch struct {
	resident bool
	size     int64
	sp       span
	labels   []float64
}

// decodeManifest parses a manifest image without opening any file. Any
// input yields a manifest or an error, never a panic, and every slice it
// makes is bounded by the bytes in hand. An accepted manifest names only
// shards it lists and spans inside the bytes their shard wrote, so the
// reads OpenStore then makes are bounded by files whose size it checks.
func decodeManifest(img []byte) (*manifest, error) {
	body, err := checkpoint.Unseal(img)
	if err != nil {
		return nil, err
	}
	r := bitpack.NewReader(body)
	if m := r.Take(len(manifestMagic)); string(m) != manifestMagic {
		return nil, fmt.Errorf("not a store manifest (magic %q)", m)
	}
	if v := r.U8(); v != manifestVersion {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	r.Take(3) // reserved
	m := &manifest{method: r.Str(), budget: int64(r.U64())}
	nShards := r.Count("shards", minShardRecord)
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.shards = make([]manifestShard, nShards)
	for i := range m.shards {
		sh := manifestShard{dir: r.Str(), base: r.Str(), wpos: int64(r.U64()), bytes: int64(r.U64())}
		switch {
		case r.Err() != nil:
			return nil, r.Err()
		case sh.wpos < 0 || sh.bytes < 0 || sh.bytes > sh.wpos:
			return nil, fmt.Errorf("shard %d wrote %d bytes, %d of them spills", i, sh.wpos, sh.bytes)
		case sh.base == "" && sh.wpos > 0:
			return nil, fmt.Errorf("shard %d wrote %d bytes but names no file", i, sh.wpos)
		}
		m.shards[i] = sh
	}
	nBatches := r.Count("batches", minBatchRecord)
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.batches = make([]manifestBatch, nBatches)
	for i := range m.batches {
		flags, size, shard := r.U8(), int64(r.U64()), r.U32()
		sp := span{off: int64(r.U64()), length: int64(r.U64()), crc: r.U32()}
		labels := r.F64s(r.Count("labels", 8))
		switch {
		case r.Err() != nil:
			return nil, r.Err()
		case flags > 1:
			return nil, fmt.Errorf("batch %d has unknown flags %#x", i, flags)
		case uint64(shard) >= uint64(len(m.shards)):
			return nil, fmt.Errorf("batch %d names shard %d of %d", i, shard, len(m.shards))
		}
		sp.shard = int(shard)
		if wpos := m.shards[sp.shard].wpos; size < 0 || sp.off < 0 || sp.length < 0 || sp.off > wpos-sp.length {
			return nil, fmt.Errorf("batch %d (size %d) spans [%d, +%d) of shard %d, which wrote %d bytes",
				i, size, sp.off, sp.length, shard, wpos)
		}
		m.batches[i] = manifestBatch{resident: flags == 1, size: size, sp: sp, labels: labels}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// OpenStore reopens a store from a manifest written by WriteManifest:
// it decodes and validates the manifest, opens the shard files
// read-only, checks each file is at least as long as the manifest says
// it wrote (truncation), re-reads every span — resident backups and
// spills alike — verifying its CRC, and decodes the resident batches
// back into memory. Any mismatch is a loud error; a recovered store
// never serves bytes that differ from what was persisted.
//
// Options configure the runtime disk model (bandwidth, latency) and the
// read retries; the shard layout comes from the manifest, so
// WithShards/WithShardDirs are ignored. The reopened store is
// persistent: Close keeps the shard files for the next restart.
func OpenStore(manifestPath string, opts ...Option) (*Store, error) {
	img, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(img)
	if err != nil {
		return nil, fmt.Errorf("storage: manifest %s: %w", manifestPath, err)
	}
	codec, ok := formats.GetCodec(m.method)
	if !ok {
		return nil, fmt.Errorf("storage: manifest %s names unknown method %q", manifestPath, m.method)
	}
	shards := make([]*shard, len(m.shards))
	for i, ms := range m.shards {
		shards[i] = &shard{dir: ms.dir, wpos: ms.wpos, bytes: ms.bytes}
	}
	s := resolveOptions(opts).newStore(m.method, codec, m.budget, shards)
	s.persist = true
	if err := s.restore(m); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// restore opens the shard files m names and reads every batch back from
// them: resident batches into memory, spilled ones as spans.
func (s *Store) restore(m *manifest) error {
	for i, ms := range m.shards {
		if ms.base == "" {
			continue
		}
		path := filepath.Join(ms.dir, ms.base)
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("storage: open shard %d: %w", i, err)
		}
		s.shards[i].file = f
		fi, err := f.Stat()
		if err != nil {
			return fmt.Errorf("storage: stat shard %d: %w", i, err)
		}
		if fi.Size() < ms.wpos {
			return fmt.Errorf("storage: shard file %s truncated: %d bytes, manifest wrote %d", path, fi.Size(), ms.wpos)
		}
	}
	n := len(m.batches)
	s.resident = make([]formats.CompressedMatrix, n)
	s.labels = make([][]float64, n)
	s.spans = make([]span, n)
	s.sizes = make([]int64, n)
	s.resSpans = make([]span, n)
	var st Stats
	for i, b := range m.batches {
		img, err := s.readSpanVerified(i, b.sp)
		if err != nil {
			return err
		}
		s.labels[i] = b.labels
		s.sizes[i] = b.size
		if !b.resident {
			s.spans[i] = b.sp
			st.SpilledBatches++
			st.SpilledBytes += b.sp.length
			continue
		}
		c, err := s.codec.Decode(img)
		if err != nil {
			return fmt.Errorf("storage: decode resident batch %d backup: %w", i, err)
		}
		s.resident[i] = c
		s.resSpans[i] = b.sp
		st.ResidentBatches++
		st.ResidentBytes += b.size
	}
	s.mu.Lock()
	s.stats = st
	s.mu.Unlock()
	return nil
}

// readSpanVerified reads one span's bytes and checks them against the
// manifest CRC — the recovery-time full scan that turns silent disk
// corruption into a startup error.
func (s *Store) readSpanVerified(batch int, sp span) ([]byte, error) {
	sh := s.shards[sp.shard]
	if sh.file == nil {
		return nil, fmt.Errorf("storage: batch %d lives on shard %d, which has no file", batch, sp.shard)
	}
	buf := make([]byte, sp.length)
	if _, err := sh.file.ReadAt(buf, sp.off); err != nil {
		return nil, fmt.Errorf("storage: read batch %d during recovery: %w", batch, err)
	}
	if got := crc32.Checksum(buf, spanTable); got != sp.crc {
		return nil, fmt.Errorf("storage: batch %d failed CRC during recovery (stored %08x, read %08x): corrupt shard file", batch, sp.crc, got)
	}
	return buf, nil
}
