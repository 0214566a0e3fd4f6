// Package dist is distributed data-parallel training: N trainer
// processes exchange compressed gradients with a parameter server over
// the package's own frames (any io.ReadWriteCloser — TCP in
// cmd/toctrain, net.Pipe in tests; wire.go frames them, session.go
// documents each request), reusing the local engine's versioned-snapshot
// + bounded-staleness protocol as the wire contract. The server owns the
// model and the update clock; trainers pull versioned parameter images,
// compute mini-batch gradients against them, and push the gradients
// back. A trainer pulls whenever its image trails the position it is
// about to compute by more than the staleness bound, so its push is
// always admitted; a push the server refuses anyway is an error that
// ends the trainer, and the server requeues its position like a crashed
// trainer's — engine.Loop's admission rule, the one the local engine
// runs under, carried across the wire.
//
// Gradient traffic is compressed by a GradCodec on both directions:
// dense (the exact baseline — a single trainer at staleness 0 walks the
// serial trajectory bitwise), top-k sparsification with error-feedback
// residuals (ScaleCom-style), and double-pass error-compensated
// quantization (DoubleSqueeze-style, the server compressing its
// downlink deltas per trainer with its own residual). A simulated link
// (the storage layer's disk model applied to a NIC) converts bytes saved
// into wall-clock saved: bytes ÷ bandwidth, arithmetic that
// TestTopKConvergenceAndWireRatio gates together with the
// compression-ratio × convergence trade-off.
//
// What a codec costs the endpoints is measured beside what it saves the
// wire. Top-k selects in linear time (TopK, selectKth): at the NN
// workload's np = 49960 an uplink encode takes ≈ 0.36 ms and a downlink
// encode ≈ 0.39 ms beside an ≈ 18 ms gradient — 12.8 ms and 6.7 ms while
// it sorted every coordinate — so on an unmetered link topk:0.01 runs
// at 0.92 of the dense codec's rows/s (dist.vs_dense; 0.58 before) for
// 1.8% of its bytes (medians of three alternating traced pairs of the
// benchmark's dist_nn_topk, 2-core box). BenchmarkTopKEncode is the
// same bill without the cluster around it.
package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"toc/internal/bitpack"
)

// Payload tags make every codec's wire image self-describing, so a
// payload decoded by the wrong codec (or fuzzed garbage) fails loudly
// instead of scattering noise into the parameters.
const (
	tagDense = 'D'
	tagTopK  = 'K'
	tagDSQ   = 'Q'
)

// GradCodec compresses the two directions of parameter-server traffic.
// Encode methods append to dst and return the extended slice; Decode
// methods validate untrusted wire bytes and never panic on malformed
// input (FuzzGradCodecDecode leans on this).
//
// A codec instance is stateful — error-feedback residuals accumulate
// what past payloads dropped — and is confined to one goroutine: the
// trainer owns its uplink instance, the server owns one downlink clone
// per trainer.
type GradCodec interface {
	// Name is the flag-friendly spec ("dense", "topk:0.01", "dsq:4");
	// ParseCodec(Name(), seed) reconstructs an equivalent codec.
	Name() string

	// EncodeGrad compresses one gradient for the uplink, folding the
	// error-feedback residual in first and retaining whatever the
	// payload drops, so the residual plus everything delivered sums to
	// the exact gradient history.
	EncodeGrad(grad []float64, dst []byte) []byte
	// DecodeGrad reconstructs a full (dense) gradient vector from an
	// uplink payload into out, which sizes the expected vector.
	DecodeGrad(payload []byte, out []float64) error

	// EncodeSnap compresses the server→trainer parameter image: the
	// delta of params against prev (the image the receiving trainer
	// currently holds) — DoubleSqueeze's second compression pass,
	// error-compensated because prev is advanced by exactly what the
	// payload carries, so whatever a lossy payload dropped stays in the
	// next delta. The dense codec ships the full image instead — exact,
	// which is what anchors the bitwise-identity contract.
	EncodeSnap(params, prev []float64, dst []byte) []byte
	// DecodeSnap applies a downlink payload to the trainer's image.
	DecodeSnap(payload []byte, params []float64) error

	// Clone returns a fresh codec of the same spec with empty residual
	// state; the server clones its configured codec once per trainer.
	Clone() GradCodec
}

// ParseCodec resolves a codec spec: "dense", "topk:<ratio>" (fraction
// of coordinates kept, e.g. topk:0.01), or "dsq:<bits>" (quantization
// width, 2–8 bits per coordinate). seed drives the only randomness any
// codec uses — dsq's stochastic rounding — through a seeded stream, so
// runs stay reproducible.
func ParseCodec(spec string, seed int64) (GradCodec, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "", "dense":
		return &Dense{}, nil
	case "topk":
		ratio := 0.01
		if arg != "" {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("dist: bad topk ratio %q: %v", arg, err)
			}
			ratio = v
		}
		if !(ratio > 0 && ratio <= 1) {
			return nil, fmt.Errorf("dist: topk ratio %v out of (0, 1]", ratio)
		}
		return &TopK{ratio: ratio}, nil
	case "dsq":
		bits := 4
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("dist: bad dsq bits %q: %v", arg, err)
			}
			bits = v
		}
		if bits < 2 || bits > 8 {
			return nil, fmt.Errorf("dist: dsq bits %d out of [2, 8]", bits)
		}
		return &DSQ{bits: bits, seed: seed}, nil
	default:
		return nil, fmt.Errorf("dist: unknown codec %q (want dense, topk:<ratio> or dsq:<bits>)", spec)
	}
}

// header appends a payload's tag and coordinate count.
func header(dst []byte, tag byte, np int) []byte {
	dst = append(dst, tag)
	return bitpack.AppendUvarint(dst, uint64(np))
}

// readHeader validates a payload's tag and coordinate count against the
// caller's vector and returns the remaining bytes.
func readHeader(payload []byte, tag byte, np int) ([]byte, error) {
	if len(payload) == 0 || payload[0] != tag {
		return nil, fmt.Errorf("dist: payload is not a %q image", tag)
	}
	n, used, err := bitpack.Uvarint(payload[1:])
	if err != nil {
		return nil, fmt.Errorf("dist: payload length: %v", err)
	}
	if n != uint64(np) {
		return nil, fmt.Errorf("dist: payload carries %d coordinates, vector has %d", n, np)
	}
	return payload[1+used:], nil
}

// compressor is the lossy half of an error-compensated codec: TopK and
// DSQ are one each, and feedback supplies everything else.
type compressor interface {
	// encode appends the compressed image of acc to dst and removes from
	// acc what the image carries, leaving what it dropped.
	encode(acc []float64, dst []byte) []byte
	// decode parses the payload of an np-wide vector, calling visit with
	// each coordinate it carries. It errors on any malformed byte and
	// validates every length before allocating, but may have visited
	// earlier coordinates by then.
	decode(payload []byte, np int, visit func(i int, v float64)) error
}

// feedback is the error-compensation wrapper of DoubleSqueeze and
// ScaleCom, written once around any compressor. Uplink: the gradient is
// added to the residual, the sum compressed, and what the payload drops
// stays in the residual, so the residual plus everything delivered sums
// to the exact gradient history. Downlink: the delta of params against
// prev (the image the receiving trainer holds) is compressed and prev
// advanced by exactly what the payload carries; prev only moves by what
// was delivered, so the delta itself is the error-feedback state and a
// separate residual would double-count it.
type feedback struct {
	gradRes []float64 // uplink residual, sized at first use
	acc     []float64 // downlink delta scratch
}

// grow sizes a residual (or scratch) vector for np coordinates.
func grow(buf *[]float64, np int) []float64 {
	if len(*buf) != np {
		*buf = make([]float64, np)
	}
	return *buf
}

func (f *feedback) encodeGrad(c compressor, grad []float64, dst []byte) []byte {
	res := grow(&f.gradRes, len(grad))
	for i, g := range grad {
		res[i] += g
	}
	return c.encode(res, dst)
}

func (f *feedback) encodeSnap(c compressor, params, prev []float64, dst []byte) []byte {
	acc := grow(&f.acc, len(params))
	for i := range acc {
		acc[i] = params[i] - prev[i]
	}
	mark := len(dst)
	dst = c.encode(acc, dst)
	// Apply the payload to prev so it tracks the trainer-side image.
	if err := c.decode(dst[mark:], len(prev), func(i int, v float64) { prev[i] += v }); err != nil {
		// Decoding bytes this codec just encoded cannot fail.
		panic(fmt.Sprintf("dist: codec self-decode: %v", err))
	}
	return dst
}

// validate parses an untrusted payload without touching anything, so a
// malformed one cannot leave a half-applied vector behind.
func validate(c compressor, payload []byte, np int) error {
	return c.decode(payload, np, func(int, float64) {})
}

// decodeGrad scatters an uplink payload into a zeroed out.
func decodeGrad(c compressor, payload []byte, out []float64) error {
	if err := validate(c, payload, len(out)); err != nil {
		return err
	}
	clear(out)
	return c.decode(payload, len(out), func(i int, v float64) { out[i] = v })
}

// addPayload adds a downlink delta's coordinates onto the trainer's image.
func addPayload(c compressor, payload []byte, vec []float64) error {
	if err := validate(c, payload, len(vec)); err != nil {
		return err
	}
	return c.decode(payload, len(vec), func(i int, v float64) { vec[i] += v })
}

// Dense is the uncompressed baseline codec: raw float64 coordinates in
// both directions, and the downlink ships the full parameter image (not
// a delta), so what the trainer decodes is bit-for-bit what the server
// holds — the property the single-trainer identity tests anchor on.
type Dense struct{}

// Name implements GradCodec.
func (*Dense) Name() string { return "dense" }

// Clone implements GradCodec; Dense carries no residual state.
func (*Dense) Clone() GradCodec { return &Dense{} }

// EncodeGrad implements GradCodec: the exact gradient, no residual.
func (*Dense) EncodeGrad(grad []float64, dst []byte) []byte {
	return bitpack.AppendF64s(header(dst, tagDense, len(grad)), grad)
}

// DecodeGrad implements GradCodec.
func (*Dense) DecodeGrad(payload []byte, out []float64) error {
	return denseDecode(payload, out)
}

// EncodeSnap implements GradCodec: the full parameter image, exact.
func (d *Dense) EncodeSnap(params, prev []float64, dst []byte) []byte {
	copy(prev, params)
	return d.EncodeGrad(params, dst)
}

// DecodeSnap implements GradCodec: overwrite with the exact image.
func (*Dense) DecodeSnap(payload []byte, params []float64) error {
	return denseDecode(payload, params)
}

func denseDecode(payload []byte, out []float64) error {
	body, err := readHeader(payload, tagDense, len(out))
	if err != nil {
		return err
	}
	if len(body) != 8*len(out) {
		return fmt.Errorf("dist: dense payload body is %d bytes, want %d", len(body), 8*len(out))
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return nil
}
