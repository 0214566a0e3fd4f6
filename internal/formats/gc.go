package formats

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"

	"toc/internal/bitpack"
	"toc/internal/matrix"
	"toc/internal/snappy"
)

// The general compression schemes (GC): the serialized DEN bytes are
// compressed as an opaque blob. Every matrix operation must decompress the
// whole mini-batch first — the decompression overhead that makes GC a poor
// fit for MGD (paper Figure 1B and §5.2).

// gcCodec abstracts the byte compressor a gcMatrix uses. decompress
// refuses a stream that would inflate past limit bytes before it
// allocates for more than that.
type gcCodec interface {
	name() string
	compress([]byte) []byte
	decompress(b []byte, limit int) ([]byte, error)
}

// gcMatrix is a mini-batch stored as compressed DEN bytes.
type gcMatrix struct {
	rows, cols int
	codec      gcCodec
	blob       []byte
}

func init() {
	Register("Gzip",
		func(d *matrix.Dense) CompressedMatrix { return newGC(d, gzipCodec{}) },
		func(img []byte) (CompressedMatrix, error) { return deserializeGC(img, magicGzip, gzipCodec{}) })
	Register("Snappy",
		func(d *matrix.Dense) CompressedMatrix { return newGC(d, snappyCodec{}) },
		func(img []byte) (CompressedMatrix, error) { return deserializeGC(img, magicSnappy, snappyCodec{}) })
}

func newGC(d *matrix.Dense, c gcCodec) *gcMatrix {
	return &gcMatrix{rows: d.Rows(), cols: d.Cols(), codec: c, blob: c.compress(d.Serialize())}
}

func (e *gcMatrix) magic() byte {
	if e.codec.name() == "Gzip" {
		return magicGzip
	}
	return magicSnappy
}

// Serialize writes a header plus the compressed DEN blob.
func (e *gcMatrix) Serialize() []byte {
	out := putHeader(make([]byte, 0, wireHeaderSize+len(e.blob)), e.magic(), e.rows, e.cols, len(e.blob))
	return append(out, e.blob...)
}

func deserializeGC(img []byte, magic byte, c gcCodec) (CompressedMatrix, error) {
	r := bitpack.NewReader(img)
	rows, cols, blobLen, err := readHeader(&r, magic)
	if err != nil {
		return nil, err
	}
	blob := r.Take(blobLen)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("formats: %s blob: %w", c.name(), err)
	}
	e := &gcMatrix{rows: rows, cols: cols, codec: c, blob: append([]byte(nil), blob...)}
	// Validate eagerly so corrupt images error here instead of panicking
	// inside a later matrix operation.
	raw, err := c.decompress(e.blob, e.denSize())
	if err != nil {
		return nil, fmt.Errorf("formats: %s payload: %w", c.name(), err)
	}
	d, err := matrix.DeserializeDense(raw)
	if err != nil {
		return nil, fmt.Errorf("formats: %s payload: %w", c.name(), err)
	}
	if d.Rows() != rows || d.Cols() != cols {
		return nil, fmt.Errorf("formats: %s payload dims %dx%d != header %dx%d",
			c.name(), d.Rows(), d.Cols(), rows, cols)
	}
	return e, nil
}

// Rows returns the number of tuples.
func (e *gcMatrix) Rows() int { return e.rows }

// Cols returns the number of columns.
func (e *gcMatrix) Cols() int { return e.cols }

// denSize is the DEN image size the header's rows×cols implies: the most
// a blob may decompress to.
func (e *gcMatrix) denSize() int { return 16 + 8*e.rows*e.cols }

// CompressedSize returns the wire size (header + compressed blob).
func (e *gcMatrix) CompressedSize() int { return wireHeaderSize + len(e.blob) }

// Decode decompresses the blob and deserializes the DEN bytes.
func (e *gcMatrix) Decode() *matrix.Dense {
	raw, err := e.codec.decompress(e.blob, e.denSize())
	if err != nil {
		panic(fmt.Sprintf("formats: %s decompress: %v", e.codec.name(), err))
	}
	d, err := matrix.DeserializeDense(raw)
	if err != nil {
		panic(fmt.Sprintf("formats: %s payload: %v", e.codec.name(), err))
	}
	return d
}

// Scale decompresses, scales and recompresses — GC has no direct path even
// for sparse-safe ops.
func (e *gcMatrix) Scale(c float64) CompressedMatrix {
	return newGC(e.Decode().Scale(c), e.codec)
}

// NewKernelPlan returns the batch's kernel plan: the batch itself, whose
// Release has nothing to recycle.
func (e *gcMatrix) NewKernelPlan() KernelPlan { return (*gcPlan)(e) }

// gcPlan is a GC scheme's KernelPlan: every kernel call decompresses the
// whole mini-batch, then runs DEN's kernel on it — the per-operation
// decompression the paper's §5 measures.
type gcPlan gcMatrix

// den decompresses the mini-batch into DEN's plan.
func (p *gcPlan) den() *denPlan { return &denPlan{d: (*gcMatrix)(p).Decode()} }

// Release is a no-op: the plan holds no memory of its own.
func (p *gcPlan) Release() {}

// MulVecInto decompresses, then computes A·v into dst.
func (p *gcPlan) MulVecInto(dst, v []float64, workers int) []float64 {
	return p.den().MulVecInto(dst, v, workers)
}

// VecMulInto decompresses, then computes v·A into dst.
func (p *gcPlan) VecMulInto(dst, v []float64, workers int) []float64 {
	return p.den().VecMulInto(dst, v, workers)
}

// MulMatInto decompresses, then computes A·M into dst.
func (p *gcPlan) MulMatInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	return p.den().MulMatInto(dst, m, workers)
}

// MatMulInto decompresses, then computes M·A into dst.
func (p *gcPlan) MatMulInto(dst *matrix.Dense, m *matrix.Dense, workers int) *matrix.Dense {
	return p.den().MatMulInto(dst, m, workers)
}

type gzipCodec struct{}

func (gzipCodec) name() string { return "Gzip" }

func (gzipCodec) compress(b []byte) []byte {
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	if _, err := w.Write(b); err != nil {
		panic(fmt.Sprintf("formats: gzip write: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("formats: gzip close: %v", err))
	}
	return buf.Bytes()
}

func (gzipCodec) decompress(b []byte, limit int) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	raw, err := io.ReadAll(io.LimitReader(r, int64(limit)+1))
	if err == nil && len(raw) > limit {
		err = fmt.Errorf("gzip: stream inflates past %d bytes", limit)
	}
	return raw, err
}

type snappyCodec struct{}

func (snappyCodec) name() string { return "Snappy" }

func (snappyCodec) compress(b []byte) []byte { return snappy.Encode(b) }

func (snappyCodec) decompress(b []byte, limit int) ([]byte, error) {
	if n, err := snappy.DecodedLen(b); err == nil && n > limit {
		return nil, fmt.Errorf("snappy: declared length %d exceeds %d", n, limit)
	}
	return snappy.Decode(b)
}
