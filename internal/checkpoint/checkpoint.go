// Package checkpoint is the versioned, CRC-guarded training snapshot
// behind the repo's crash/resume guarantee: a State captures everything
// the engines need to continue a run's exact trajectory — the model's
// flat parameter vector, the position inside the epoch schedule (epoch,
// batch position, async clock), the partially-accumulated epoch loss,
// the run configuration whose mismatch would silently fork the
// trajectory (seed, group size, staleness bound, learning rate), and the
// async engine's staleness frontier (the archived parameter versions its
// delayed-gradient mode replays from).
//
// The visit order needs no bytes of its own: every epoch visits the
// batches in ingest order, so the position is the whole cursor.
//
// The wire format is a single little-endian image with a trailing
// CRC-32C, written atomically: temp file in the destination directory,
// fsync, rename, directory fsync. A reader therefore sees either the
// previous checkpoint or the complete new one, never a torn middle;
// anything torn anyway (truncation, bit flips) fails the length check
// or the CRC and is reported as an error, never resumed from. Decode
// validates the image's self-described lengths against the actual byte
// count before allocating, so corrupt input cannot drive allocation
// (the FuzzCheckpointDecode target leans on this).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"toc/internal/faultpoint"
)

// Kind says which engine wrote a checkpoint; resuming with the other
// engine is a validation error, not a silent trajectory fork.
type Kind uint8

const (
	// KindSync is the synchronous group-step engine.
	KindSync Kind = 1
	// KindAsync is the bounded-staleness async engine.
	KindAsync Kind = 2
	// KindDist is the distributed parameter server (internal/dist).
	KindDist Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindSync:
		return "sync"
	case KindAsync:
		return "async"
	case KindDist:
		return "dist"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// State is one training snapshot. Config fields (Kind through
// NumBatches) identify the run; position fields (Epoch, Pos, Clock,
// PartialLoss, EpochLoss) locate the trajectory point; Params (and for
// async deterministic runs, Archive) restore it.
type State struct {
	// Kind is the engine that wrote the snapshot.
	Kind Kind
	// Seed identifies the run; resume refuses a checkpoint of another
	// seed.
	Seed int64
	// LR is the learning rate; resume validates it bit-for-bit.
	LR float64
	// Deterministic marks an async run in delayed-gradient replay mode
	// (the only async mode with a bitwise-resumable trajectory at
	// staleness > 0).
	Deterministic bool
	// Group is the sync engine's gradients-per-update count (0 for async).
	Group int
	// Staleness is the async bound (-1 unbounded; 0 for sync).
	Staleness int
	// NumBatches is the per-epoch batch count of the source.
	NumBatches int

	// Epoch and Pos locate the sync trajectory: the next update starts
	// at batch position Pos of epoch Epoch. Pos is always a group
	// boundary (a checkpoint is only taken between updates).
	Epoch int
	Pos   int
	// Clock is the async position: applied updates so far (the next
	// position to apply). Epoch-major: Clock = epoch*NumBatches + pos.
	Clock int64
	// PartialLoss is the running loss sum of the in-progress epoch, so
	// the resumed epoch's reported loss is bitwise what the
	// uninterrupted run would have reported.
	PartialLoss float64
	// EpochLoss holds the completed epochs' mean losses.
	EpochLoss []float64

	// Params is the model's flat parameter vector (ml.SnapshotModel
	// layout) at the snapshot point.
	Params []float64
	// Archive holds the async deterministic mode's staleness frontier:
	// the parameter vectors of versions Clock-len(Archive) .. Clock-1,
	// oldest first (Params itself is version Clock). Empty for sync
	// runs, staleness 0, and nondeterministic async runs.
	Archive [][]float64
}

// Step is the snapshot's global update-position, used to order
// checkpoint files: applied updates for async, visited batch positions
// for sync.
func (s *State) Step() int64 {
	if s.Kind == KindAsync || s.Kind == KindDist {
		return s.Clock
	}
	return int64(s.Epoch)*int64(s.NumBatches) + int64(s.Pos)
}

const (
	magic   = "TOCK"
	version = 1
	// Bit 0 stays unassigned: older images set it for a run whose epochs
	// were permuted, and such an image must be refused (unknown flags),
	// not resumed in ingest order.
	flagDeterministic = 1 << 1

	// headerLen is the fixed-size prefix before the variable sections:
	// magic(4) version(1) kind(1) flags(1) reserved(1) seed(8) lr(8)
	// group(4) staleness(4) nbatches(4) epoch(4) pos(4) clock(8)
	// partial(8) nEpochLoss(4) nParams(4) nArchive(4).
	headerLen = 4 + 1 + 1 + 1 + 1 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4 + 4
	// trailerLen is the trailing CRC-32C.
	trailerLen = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the state into its canonical wire image (including
// the trailing CRC). Decode(Encode(s)) is the identity, and the
// encoding is canonical: a successfully decoded image re-encodes to the
// same bytes.
func Encode(s *State) []byte {
	size := headerLen + 8*len(s.EpochLoss) + 8*len(s.Params) + 8*len(s.Params)*len(s.Archive) + trailerLen
	img := make([]byte, 0, size)
	img = append(img, magic...)
	img = append(img, version, byte(s.Kind))
	var flags byte
	if s.Deterministic {
		flags |= flagDeterministic
	}
	img = append(img, flags, 0)
	img = binary.LittleEndian.AppendUint64(img, uint64(s.Seed))
	img = binary.LittleEndian.AppendUint64(img, math.Float64bits(s.LR))
	img = binary.LittleEndian.AppendUint32(img, uint32(s.Group))
	img = binary.LittleEndian.AppendUint32(img, uint32(int32(s.Staleness)))
	img = binary.LittleEndian.AppendUint32(img, uint32(s.NumBatches))
	img = binary.LittleEndian.AppendUint32(img, uint32(s.Epoch))
	img = binary.LittleEndian.AppendUint32(img, uint32(s.Pos))
	img = binary.LittleEndian.AppendUint64(img, uint64(s.Clock))
	img = binary.LittleEndian.AppendUint64(img, math.Float64bits(s.PartialLoss))
	img = binary.LittleEndian.AppendUint32(img, uint32(len(s.EpochLoss)))
	img = binary.LittleEndian.AppendUint32(img, uint32(len(s.Params)))
	img = binary.LittleEndian.AppendUint32(img, uint32(len(s.Archive)))
	for _, v := range s.EpochLoss {
		img = binary.LittleEndian.AppendUint64(img, math.Float64bits(v))
	}
	for _, v := range s.Params {
		img = binary.LittleEndian.AppendUint64(img, math.Float64bits(v))
	}
	for _, vec := range s.Archive {
		if len(vec) != len(s.Params) {
			panic(fmt.Sprintf("checkpoint: archive vector has %d params, model has %d", len(vec), len(s.Params)))
		}
		for _, v := range vec {
			img = binary.LittleEndian.AppendUint64(img, math.Float64bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))
}

// Decode parses and validates a checkpoint image. Every length the
// image claims is checked against the actual byte count before any
// section is allocated, and the trailing CRC-32C must match; corrupt or
// truncated images return an error, never a partial State.
func Decode(img []byte) (*State, error) {
	if len(img) < headerLen+trailerLen {
		return nil, fmt.Errorf("checkpoint: image truncated (%d bytes, header needs %d)", len(img), headerLen+trailerLen)
	}
	if string(img[:4]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", img[:4])
	}
	if img[4] != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", img[4])
	}
	kind := Kind(img[5])
	if kind != KindSync && kind != KindAsync && kind != KindDist {
		return nil, fmt.Errorf("checkpoint: unknown engine kind %d", img[5])
	}
	flags := img[6]
	if flags&^flagDeterministic != 0 {
		return nil, fmt.Errorf("checkpoint: unknown flags %#x", flags)
	}
	le := binary.LittleEndian
	nEpochLoss := uint64(le.Uint32(img[headerLen-12:]))
	nParams := uint64(le.Uint32(img[headerLen-8:]))
	nArchive := uint64(le.Uint32(img[headerLen-4:]))
	want := uint64(headerLen) + 8*(nEpochLoss+nParams+nArchive*nParams) + trailerLen
	if uint64(len(img)) != want {
		return nil, fmt.Errorf("checkpoint: image is %d bytes, header describes %d", len(img), want)
	}
	body := img[:len(img)-trailerLen]
	if got, stored := crc32.Checksum(body, castagnoli), le.Uint32(img[len(img)-trailerLen:]); got != stored {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (stored %08x, computed %08x)", stored, got)
	}
	s := &State{
		Kind:          kind,
		Deterministic: flags&flagDeterministic != 0,
		Seed:          int64(le.Uint64(img[8:])),
		LR:            math.Float64frombits(le.Uint64(img[16:])),
		Group:         int(le.Uint32(img[24:])),
		Staleness:     int(int32(le.Uint32(img[28:]))),
		NumBatches:    int(le.Uint32(img[32:])),
		Epoch:         int(le.Uint32(img[36:])),
		Pos:           int(le.Uint32(img[40:])),
		Clock:         int64(le.Uint64(img[44:])),
		PartialLoss:   math.Float64frombits(le.Uint64(img[52:])),
	}
	off := headerLen
	readVec := func(n uint64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(le.Uint64(img[off:]))
			off += 8
		}
		return out
	}
	if nEpochLoss > 0 {
		s.EpochLoss = readVec(nEpochLoss)
	}
	if nParams > 0 {
		s.Params = readVec(nParams)
	}
	if nArchive > 0 {
		s.Archive = make([][]float64, nArchive)
		for i := range s.Archive {
			s.Archive[i] = readVec(nParams)
		}
	}
	return s, nil
}

// Save writes the state atomically to path: temp file in the same
// directory, fsync, rename over path, fsync the directory. A crash at
// any point leaves either the old file or the complete new one.
func Save(path string, s *State) error {
	img := Encode(s)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	// Cleanup of the temp file on error is explicit rather than
	// deferred: an injected crash (faultpoint) must leave exactly the
	// debris a real kill would.
	name := tmp.Name()
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: close temp: %w", err)
	}
	faultpoint.Hit("checkpoint.rename")
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// Load reads and validates one checkpoint file.
func Load(path string) (*State, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(img)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// FileName is the checkpoint file name for a snapshot at global update
// position step; zero-padding makes lexical order the step order.
func FileName(step int64) string {
	return fmt.Sprintf("ckpt-%016d.toc", step)
}

// Latest loads the newest checkpoint in dir (the highest step number).
// It returns os.ErrNotExist when the directory holds no checkpoints,
// and fails loudly — it does not fall back to an older file — when the
// newest one is corrupt: silently resuming from an earlier snapshot
// than the caller believes would be correct here (any valid checkpoint
// resumes the same trajectory) but would mask real corruption bugs.
func Latest(dir string) (*State, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if len(n) == len("ckpt-0000000000000000.toc") && n[:5] == "ckpt-" && filepath.Ext(n) == ".toc" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("checkpoint: no checkpoints in %s: %w", dir, os.ErrNotExist)
	}
	sort.Strings(names)
	return Load(filepath.Join(dir, names[len(names)-1]))
}
