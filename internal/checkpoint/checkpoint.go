// Package checkpoint is the versioned, CRC-guarded training snapshot
// behind the repo's crash/resume guarantee: a State captures everything
// the engines need to continue a run's exact trajectory — the model's
// flat parameter vector, the position inside the epoch schedule (epoch,
// batch position, clock), the partially-accumulated epoch loss, the run
// configuration whose mismatch would silently fork the trajectory (seed,
// group size, staleness bound, learning rate), and the staleness
// frontier (the archived parameter versions delayed-gradient mode
// replays from).
//
// The visit order needs no bytes of its own: every epoch visits the
// batches in ingest order, so the position is the whole cursor.
//
// The wire format is a single little-endian image with a trailing
// CRC-32C (Seal), written by WriteFile: temp file in the destination
// directory, fsync, rename, directory fsync. A reader therefore sees
// either the previous checkpoint or the complete new one, never a torn
// middle; anything torn anyway (truncation, bit flips) fails the CRC
// (Unseal) or the length checks and is reported as an error, never
// resumed from. WriteFile and Seal/Unseal are the repo's one durable
// writer and one trailer: the store manifest is written and checked
// through them too.
//
// The CRC catches accidents, not forgeries, so Decode reads the image
// through bitpack.Reader, which bounds every count by the bytes left
// before anything is sized by it: no image, CRC valid or not, can drive
// allocation (FuzzCheckpointDecode reseals each mutation's CRC to check
// exactly that).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"toc/internal/bitpack"
	"toc/internal/faultpoint"
)

// Kind says which front end wrote a checkpoint; resuming with the other
// one is a validation error, not a silent trajectory fork.
type Kind uint8

const (
	// KindLocal is the in-process engine (internal/engine), for every
	// group size and staleness bound.
	KindLocal Kind = 1
	// KindDist is the distributed parameter server (internal/dist). Kind
	// 2 is unassigned: Decode refuses it as unknown.
	KindDist Kind = 3

	// KindAsync exists only because the frozen benchmark/layers.go spells
	// it; item 1's benchmark PR renames its use and deletes this line.
	KindAsync = KindLocal
)

func (k Kind) String() string {
	switch k {
	case KindLocal:
		return "local"
	case KindDist:
		return "dist"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// State is one training snapshot. Config fields (Kind through
// NumBatches) identify the run; position fields (Epoch, Pos, Clock,
// PartialLoss, EpochLoss) locate the trajectory point; Params (and for
// delayed-gradient runs, Archive) restore it.
type State struct {
	// Kind is the front end that wrote the snapshot.
	Kind Kind
	// Seed identifies the run; resume refuses a checkpoint of another
	// seed.
	Seed int64
	// LR is the learning rate; resume validates it bit-for-bit.
	LR float64
	// Deterministic marks a run in delayed-gradient replay mode (the only
	// mode with a bitwise-resumable trajectory at staleness > 0).
	Deterministic bool
	// Group is the gradients-per-update count (0 for dist).
	Group int
	// Staleness is the bound (-1 unbounded).
	Staleness int
	// NumBatches is the per-epoch batch count of the source.
	NumBatches int

	// Epoch and Pos locate the local trajectory: the next update starts
	// at batch position Pos of epoch Epoch. Pos is always a group
	// boundary (a checkpoint is only taken between updates).
	Epoch int
	Pos   int
	// Clock is the dist position: applied positions so far (the next
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
	// Archive holds delayed-gradient mode's staleness frontier: the
	// parameter vectors of versions Clock-len(Archive) .. Clock-1, oldest
	// first (Params itself is version Clock). Empty unless Deterministic.
	Archive [][]float64
}

// Step is the snapshot's global position, used to order checkpoint
// files: the clock for dist, Epoch*NumBatches+Pos for local. A loop
// writes both forms, and they agree.
func (s *State) Step() int64 {
	if s.Kind == KindDist {
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
	img = bitpack.AppendF64s(img, s.EpochLoss)
	img = bitpack.AppendF64s(img, s.Params)
	for _, vec := range s.Archive {
		if len(vec) != len(s.Params) {
			panic(fmt.Sprintf("checkpoint: archive vector has %d params, model has %d", len(vec), len(s.Params)))
		}
		img = bitpack.AppendF64s(img, vec)
	}
	return Seal(img)
}

// Decode parses and validates a checkpoint image. The trailing CRC-32C
// must match, and every count the image claims is bounded by the bytes
// left before any section is sized by it; corrupt or truncated images
// return an error, never a partial State.
func Decode(img []byte) (*State, error) {
	body, err := Unseal(img)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(body) < headerLen {
		return nil, fmt.Errorf("checkpoint: image truncated (%d bytes, header needs %d)", len(img), headerLen+trailerLen)
	}
	r := bitpack.NewReader(body)
	if m := r.Take(len(magic)); string(m) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", m)
	}
	if v := r.U8(); v != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	kind := Kind(r.U8())
	if kind != KindLocal && kind != KindDist {
		return nil, fmt.Errorf("checkpoint: unknown engine kind %d", uint8(kind))
	}
	flags := r.U8()
	if flags&^flagDeterministic != 0 {
		return nil, fmt.Errorf("checkpoint: unknown flags %#x", flags)
	}
	if reserved := r.U8(); reserved != 0 {
		return nil, fmt.Errorf("checkpoint: reserved byte %#x", reserved)
	}
	s := &State{
		Kind:          kind,
		Deterministic: flags&flagDeterministic != 0,
		Seed:          int64(r.U64()),
		LR:            math.Float64frombits(r.U64()),
		Group:         int(r.U32()),
		Staleness:     int(int32(r.U32())),
		NumBatches:    int(r.U32()),
		Epoch:         int(r.U32()),
		Pos:           int(r.U32()),
		Clock:         int64(r.U64()),
		PartialLoss:   math.Float64frombits(r.U64()),
	}
	nEpochLoss := r.Count("epoch losses", 8)
	nParams := r.Count("params", 8)
	nArchive := r.Count("archived versions", 8*nParams)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if nEpochLoss > 0 {
		s.EpochLoss = r.F64s(nEpochLoss)
	}
	if nParams > 0 {
		s.Params = r.F64s(nParams)
	}
	if nArchive > 0 {
		s.Archive = make([][]float64, nArchive)
		for i := range s.Archive {
			s.Archive[i] = r.F64s(nParams)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return s, nil
}

// Seal appends img's CRC-32C trailer, the one checkpoints and store
// manifests end with.
func Seal(img []byte) []byte {
	return binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))
}

// Unseal checks the CRC-32C trailer Seal appended and returns the bytes
// before it.
func Unseal(img []byte) ([]byte, error) {
	if len(img) < trailerLen {
		return nil, fmt.Errorf("image truncated (%d bytes, no CRC-32C trailer)", len(img))
	}
	body := img[:len(img)-trailerLen]
	if got, stored := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(img[len(body):]); got != stored {
		return nil, fmt.Errorf("CRC mismatch (stored %08x, computed %08x)", stored, got)
	}
	return body, nil
}

// Save writes the state atomically to path (see WriteFile).
func Save(path string, s *State) error {
	if err := WriteFile(path, Encode(s), "checkpoint.rename"); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteFile is the one durable writer of the repo's persisted images,
// checkpoints and store manifests: it writes img to a temp file in path's
// directory, fsyncs it, renames it over path and fsyncs the directory. A
// crash at any point leaves either the old file or the complete new one.
// faultPoint names the faultpoint hit just before the rename.
func WriteFile(path string, img []byte, faultPoint string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("create temp: %w", err)
	}
	// Cleanup of the temp file on error is explicit rather than
	// deferred: an injected crash (faultpoint) must leave exactly the
	// debris a real kill would.
	name := tmp.Name()
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("close temp: %w", err)
	}
	faultpoint.Hit(faultPoint)
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("rename: %w", err)
	}
	// Fsync the directory so the completed rename survives power loss.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
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
	names, err := files(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("checkpoint: no checkpoints in %s: %w", dir, os.ErrNotExist)
	}
	return Load(filepath.Join(dir, names[len(names)-1]))
}

// files lists the checkpoint files in dir, oldest step first.
func files(dir string) ([]string, error) {
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
	sort.Strings(names)
	return names, nil
}
