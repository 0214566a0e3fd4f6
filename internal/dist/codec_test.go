package dist

import (
	"math"
	"math/rand"
	"testing"
)

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// Dense encodes bit-exactly: decode(encode(g)) == g down to the last
// float bit, on both the gradient and the snapshot path — the property
// the single-trainer identity test stands on.
func TestDenseRoundTripBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := &Dense{}
	g := randomVec(rng, 257)
	g[0], g[1], g[2] = 0, math.SmallestNonzeroFloat64, -math.MaxFloat64
	payload := c.EncodeGrad(g, nil)
	out := make([]float64, len(g))
	if err := c.DecodeGrad(payload, out); err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(out[i]) {
			t.Fatalf("grad coord %d: %x != %x", i, math.Float64bits(out[i]), math.Float64bits(g[i]))
		}
	}

	params := randomVec(rng, 257)
	prev := randomVec(rng, 257)
	snap := c.EncodeSnap(params, prev, nil)
	got := make([]float64, len(params))
	if err := c.DecodeSnap(snap, got); err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if math.Float64bits(params[i]) != math.Float64bits(got[i]) {
			t.Fatalf("snap coord %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(params[i]))
		}
	}
	// EncodeSnap advances prev to the shipped image.
	for i := range params {
		if prev[i] != params[i] {
			t.Fatalf("prev coord %d not advanced", i)
		}
	}
}

// Error feedback conserves gradient mass: across a sequence of encodes,
// everything delivered plus the residual still held equals everything
// fed in — nothing is lost, only delayed.
func TestTopKErrorFeedbackConservation(t *testing.T) {
	const np, rounds = 200, 20
	rng := rand.New(rand.NewSource(2))
	c := &TopK{ratio: 0.05}
	delivered := make([]float64, np)
	fedIn := make([]float64, np)
	out := make([]float64, np)
	var payload []byte
	for r := 0; r < rounds; r++ {
		g := randomVec(rng, np)
		for i := range g {
			fedIn[i] += g[i]
		}
		payload = c.EncodeGrad(g, payload[:0])
		if err := c.DecodeGrad(payload, out); err != nil {
			t.Fatal(err)
		}
		nz := 0
		for i := range out {
			if out[i] != 0 {
				nz++
			}
			delivered[i] += out[i]
		}
		if want := c.kOf(np); nz > want {
			t.Fatalf("round %d: %d nonzero coords, ratio admits %d", r, nz, want)
		}
	}
	// delivered + residual == fedIn, coordinate-wise.
	for i := range fedIn {
		if diff := math.Abs(delivered[i] + c.gradRes[i] - fedIn[i]); diff > 1e-9 {
			t.Fatalf("coord %d leaks %g gradient mass", i, diff)
		}
	}
}

// DSQ quantization error is bounded by one level step, and error
// feedback conserves mass the same way top-k does.
func TestDSQBoundedErrorAndConservation(t *testing.T) {
	const np, rounds = 128, 10
	rng := rand.New(rand.NewSource(4))
	c := &DSQ{bits: 4, seed: 9}
	delivered := make([]float64, np)
	fedIn := make([]float64, np)
	out := make([]float64, np)
	var payload []byte
	for r := 0; r < rounds; r++ {
		g := randomVec(rng, np)
		for i := range g {
			fedIn[i] += g[i]
		}
		payload = c.EncodeGrad(g, payload[:0])
		if err := c.DecodeGrad(payload, out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			delivered[i] += out[i]
		}
		for i, v := range c.gradRes {
			if math.Abs(v) > 1e6 {
				t.Fatalf("round %d: residual coord %d blew up to %g", r, i, v)
			}
		}
	}
	for i := range fedIn {
		if diff := math.Abs(delivered[i] + c.gradRes[i] - fedIn[i]); diff > 1e-9 {
			t.Fatalf("coord %d leaks %g gradient mass", i, diff)
		}
	}
}

// DSQ per-encode quantization error never exceeds one quantization step
// (scale / levels) on any coordinate.
func TestDSQStepError(t *testing.T) {
	const np = 64
	rng := rand.New(rand.NewSource(5))
	for _, bits := range []int{2, 4, 8} {
		c := &DSQ{bits: bits, seed: 1}
		g := randomVec(rng, np)
		acc := append([]float64(nil), g...) // residual starts empty
		payload := c.EncodeGrad(g, nil)
		out := make([]float64, np)
		if err := c.DecodeGrad(payload, out); err != nil {
			t.Fatal(err)
		}
		scale := 0.0
		for _, v := range acc {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		step := scale / float64(dsqLevels(bits))
		for i := range out {
			if diff := math.Abs(out[i] - acc[i]); diff > step+1e-12 {
				t.Fatalf("bits=%d coord %d: error %g exceeds step %g", bits, i, diff, step)
			}
		}
	}
}

// Snapshot-side error feedback: iterating EncodeSnap/DecodeSnap tracks
// the true parameters — the receiver's image converges to the sender's
// even though each delta is lossy.
func TestTopKSnapshotTracking(t *testing.T) {
	const np = 150
	rng := rand.New(rand.NewSource(6))
	c := &TopK{ratio: 0.1}
	params := randomVec(rng, np)
	senderPrev := append([]float64(nil), params...)
	receiver := append([]float64(nil), params...)
	var payload []byte
	for r := 0; r < 60; r++ {
		for i := range params {
			params[i] += 0.01 * rng.NormFloat64()
		}
		payload = c.EncodeSnap(params, senderPrev, payload[:0])
		if err := c.DecodeSnap(payload, receiver); err != nil {
			t.Fatal(err)
		}
		if diff := maxAbsDiff(receiver, senderPrev); diff != 0 {
			t.Fatalf("round %d: sender prev and receiver image disagree by %g", r, diff)
		}
	}
	// With error feedback the image must stay within a small multiple of
	// the per-round drift, not diverge.
	if diff := maxAbsDiff(receiver, params); diff > 0.5 {
		t.Fatalf("receiver image drifted %g from true params", diff)
	}
}

func TestParseCodec(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"dense", "dense"},
		{"", "dense"},
		{"topk", "topk:0.01"},
		{"topk:0.05", "topk:0.05"},
		{"dsq", "dsq:4"},
		{"dsq:2", "dsq:2"},
	}
	for _, tc := range cases {
		c, err := ParseCodec(tc.spec, 1)
		if err != nil {
			t.Errorf("ParseCodec(%q): %v", tc.spec, err)
			continue
		}
		if c.Name() != tc.want {
			t.Errorf("ParseCodec(%q).Name() = %q, want %q", tc.spec, c.Name(), tc.want)
		}
		// Clone must be independent and same-named.
		if cl := c.Clone(); cl.Name() != c.Name() {
			t.Errorf("clone of %q renamed to %q", c.Name(), cl.Name())
		}
	}
	for _, spec := range []string{"gzip", "topk:0", "topk:1.5", "topk:x", "dsq:1", "dsq:9", "dsq:x"} {
		if _, err := ParseCodec(spec, 1); err == nil {
			t.Errorf("ParseCodec(%q) accepted", spec)
		}
	}
}

// Decoders reject truncated, oversized and cross-codec payloads instead
// of panicking or silently mis-scattering.
func TestDecodeRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomVec(rng, 50)
	codecs := []GradCodec{&Dense{}, &TopK{ratio: 0.1}, &DSQ{bits: 4, seed: 1}}
	payloads := make([][]byte, len(codecs))
	for i, c := range codecs {
		payloads[i] = c.EncodeGrad(append([]float64(nil), g...), nil)
	}
	out := make([]float64, 50)
	for i, c := range codecs {
		for j, p := range payloads {
			if i == j {
				if err := c.DecodeGrad(p, out); err != nil {
					t.Errorf("%s rejects its own payload: %v", c.Name(), err)
				}
				continue
			}
			if err := c.DecodeGrad(p, out); err == nil {
				t.Errorf("%s decoded %s payload", c.Name(), codecs[j].Name())
			}
		}
		// Truncations of a valid payload must all fail cleanly.
		own := payloads[i]
		for cut := 0; cut < len(own); cut++ {
			if err := c.DecodeGrad(own[:cut], out); err == nil {
				t.Errorf("%s decoded %d-byte truncation of %d-byte payload", c.Name(), cut, len(own))
			}
		}
		// Wrong-size output vector.
		small := make([]float64, 49)
		if err := c.DecodeGrad(own, small); err == nil {
			t.Errorf("%s decoded into short output", c.Name())
		}
	}
}
