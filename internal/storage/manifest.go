package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"toc/internal/faultpoint"
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
// with a trailing CRC-32C, written atomically (temp + fsync + rename +
// directory fsync): a crash mid-write leaves the old manifest or none,
// never a torn one. OpenStore verifies the manifest CRC, each shard
// file's size, and — at recovery time, once — every span's CRC, so a
// truncated or bit-flipped shard file is a loud error, never silently
// wrong training data.

const (
	manifestMagic   = "TOCM"
	manifestVersion = 1
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

	img := s.encodeManifest()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-tmp-*")
	if err != nil {
		return fmt.Errorf("storage: create manifest temp: %w", err)
	}
	name := tmp.Name()
	// Cleanup is explicit, not deferred: an injected crash must leave
	// exactly what a real kill would.
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("storage: sync manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("storage: close manifest temp: %w", err)
	}
	faultpoint.Hit("storage.manifest.rename")
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("storage: rename manifest: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open manifest dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: sync manifest dir: %w", err)
	}
	s.persist = true
	return nil
}

// encodeManifest serializes the store layout (with trailing CRC-32C).
func (s *Store) encodeManifest() []byte {
	s.mu.Lock()
	evictions := s.stats.Evictions
	s.mu.Unlock()
	le := binary.LittleEndian
	var img []byte
	img = append(img, manifestMagic...)
	img = append(img, manifestVersion, 0, 0, 0)
	img = appendStr(img, s.method)
	img = le.AppendUint64(img, uint64(s.budget))
	img = le.AppendUint32(img, uint32(evictions))
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
		for _, v := range s.labels[i] {
			img = le.AppendUint64(img, math.Float64bits(v))
		}
	}
	return le.AppendUint32(img, crc32.Checksum(img, spanTable))
}

func appendStr(img []byte, s string) []byte {
	img = binary.LittleEndian.AppendUint16(img, uint16(len(s)))
	return append(img, s...)
}

// manifestReader walks a manifest image with bounds checking; the first
// overrun poisons every later read.
type manifestReader struct {
	buf []byte
	off int
	err error
}

func (r *manifestReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		if r.err == nil {
			r.err = fmt.Errorf("storage: manifest truncated at byte %d", r.off)
		}
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *manifestReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *manifestReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *manifestReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *manifestReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *manifestReader) str() string {
	n := int(r.u16())
	b := r.take(n)
	return string(b)
}

func (r *manifestReader) f64s() []float64 {
	n := int(r.u32())
	b := r.take(8 * n) // bounds-checked before allocating
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// OpenStore reopens a store from a manifest written by WriteManifest:
// it verifies the manifest's CRC, opens the shard files read-only,
// checks each file is at least as long as the manifest says it wrote
// (truncation), re-reads every span — resident backups and spills alike
// — verifying its CRC, and decodes the resident batches back into
// memory. Any mismatch is a loud error; a recovered store never serves
// bytes that differ from what was persisted.
//
// Options configure the runtime disk model (bandwidth, model, latency);
// the shard layout comes from the manifest, so WithShards/WithShardDirs
// are ignored. The reopened store is persistent: Close keeps the shard
// files for the next restart.
func OpenStore(manifestPath string, opts ...Option) (*Store, error) {
	img, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	if len(img) < 12 {
		return nil, fmt.Errorf("storage: manifest %s truncated (%d bytes)", manifestPath, len(img))
	}
	if string(img[:4]) != manifestMagic {
		return nil, fmt.Errorf("storage: %s is not a store manifest (magic %q)", manifestPath, img[:4])
	}
	if img[4] != manifestVersion {
		return nil, fmt.Errorf("storage: manifest %s has unsupported version %d", manifestPath, img[4])
	}
	body, stored := img[:len(img)-4], binary.LittleEndian.Uint32(img[len(img)-4:])
	if got := crc32.Checksum(body, spanTable); got != stored {
		return nil, fmt.Errorf("storage: manifest %s failed CRC (stored %08x, computed %08x)", manifestPath, stored, got)
	}

	r := &manifestReader{buf: body, off: 8}
	method := r.str()
	budget := int64(r.u64())
	evictions := int(r.u32())
	nShards := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	codec, ok := formats.GetCodec(method)
	if !ok {
		return nil, fmt.Errorf("storage: manifest %s names unknown method %q", manifestPath, method)
	}
	cfg := storeConfig{policy: FirstFit(), retry: DefaultRetryPolicy()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.retry.Attempts < 1 {
		cfg.retry.Attempts = 1
	}
	s := &Store{
		method:  method,
		codec:   codec,
		budget:  budget,
		policy:  cfg.policy,
		retry:   cfg.retry,
		jitter:  rand.New(rand.NewSource(cfg.retry.Seed)),
		persist: true,
	}
	s.stats.Evictions = evictions
	for i := 0; i < nShards; i++ {
		dir := r.str()
		base := r.str()
		wpos := int64(r.u64())
		bytes := int64(r.u64())
		if r.err != nil {
			return nil, r.err
		}
		sh := &shard{dir: dir, wpos: wpos, bytes: bytes}
		if base != "" {
			path := filepath.Join(dir, base)
			f, err := os.Open(path)
			if err != nil {
				return nil, fmt.Errorf("storage: open shard %d: %w", i, err)
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("storage: stat shard %d: %w", i, err)
			}
			if fi.Size() < wpos {
				f.Close()
				return nil, fmt.Errorf("storage: shard file %s truncated: %d bytes, manifest wrote %d", path, fi.Size(), wpos)
			}
			sh.file = f
		} else if wpos > 0 {
			return nil, fmt.Errorf("storage: manifest shard %d wrote %d bytes but names no file", i, wpos)
		}
		s.shards = append(s.shards, sh)
	}
	s.disk = newDisk(s.shards, cfg.bandwidth, cfg.latency)

	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	s.resident = make([]formats.CompressedMatrix, n)
	s.labels = make([][]float64, n)
	s.spans = make([]span, n)
	s.sizes = make([]int64, n)
	s.resSpans = make([]span, n)
	for i := 0; i < n; i++ {
		flags := r.u8()
		size := int64(r.u64())
		sp := span{
			shard:  int(r.u32()),
			off:    int64(r.u64()),
			length: int64(r.u64()),
			crc:    r.u32(),
		}
		labels := r.f64s()
		if r.err != nil {
			return nil, r.err
		}
		if sp.shard < 0 || sp.shard >= len(s.shards) {
			return nil, fmt.Errorf("storage: batch %d names shard %d of %d", i, sp.shard, len(s.shards))
		}
		img, err := s.readSpanVerified(i, sp)
		if err != nil {
			return nil, err
		}
		s.labels[i] = labels
		s.sizes[i] = size
		if flags&1 != 0 {
			c, err := codec.Decode(img)
			if err != nil {
				return nil, fmt.Errorf("storage: decode resident batch %d backup: %w", i, err)
			}
			s.resident[i] = c
			s.resSpans[i] = sp
			s.stats.ResidentBatches++
			s.stats.ResidentBytes += size
		} else {
			s.spans[i] = sp
			s.stats.SpilledBatches++
			s.stats.SpilledBytes += sp.length
		}
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("storage: manifest has %d trailing bytes", len(body)-r.off)
	}
	return s, nil
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
