package dist

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The selection contract of the TopK doc comment, case by case.
func TestTopKSelectionContract(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		vec  []float64
		k    int
		want []uint32
	}{
		{"k=1", []float64{1, -5, 3}, 1, []uint32{1}},
		{"k=np", []float64{1, -5, 3}, 3, []uint32{0, 1, 2}},
		{"all-equal", []float64{2, 2, 2, 2, 2}, 2, []uint32{0, 1}},
		{"all-zero", []float64{0, negZero, 0, negZero}, 2, []uint32{0, 1}},
		{"zeros tie across signs", []float64{negZero, 0, negZero, 7}, 3, []uint32{0, 1, 3}},
		{"±v tie, lowest index first", []float64{1, -3, 3, -3, 2}, 2, []uint32{1, 2}},
		{"±v tie, whole run", []float64{1, -3, 3, -3, 2}, 4, []uint32{1, 2, 3, 4}},
		{"NaN is sent first", []float64{1, nan, 5, 2}, 1, []uint32{1}},
		{"NaN then magnitude", []float64{1, nan, 5, 2}, 2, []uint32{1, 2}},
		{"Inf outranks finite", []float64{1, -inf, 5, 2}, 1, []uint32{1}},
		{"NaN outranks Inf", []float64{1, -inf, 5, nan}, 1, []uint32{3}},
		{"NaN and Inf", []float64{1, -inf, 5, nan}, 2, []uint32{1, 3}},
	} {
		c := &TopK{}
		if got := c.choose(tc.vec, tc.k); !slices.Equal(got, tc.want) {
			t.Errorf("%s: chose %v, want %v", tc.name, got, tc.want)
		}
	}

	// A NaN leaves the residual with its frame and reaches the receiver.
	c := &TopK{ratio: 0.25}
	acc := []float64{1, nan, 5, 2}
	out := make([]float64, len(acc))
	if err := c.DecodeGrad(c.encode(acc, nil), out); err != nil {
		t.Fatal(err)
	}
	if acc[1] != 0 || !math.IsNaN(out[1]) {
		t.Errorf("NaN coordinate: residual %v, delivered %v; want 0 and NaN", acc[1], out[1])
	}
}

// selectKth is exact and bounded on the shapes that defeat a careless
// quickselect: at most 2·⌈log₂ n⌉ partition passes whatever the input
// order (past that the window is sorted), and with the ninther pivot the
// sorted, organ-pipe and tie-heavy shapes never get near the cap.
func TestSelectKthBoundedOnAdversarialShapes(t *testing.T) {
	for _, np := range selectSizes {
		for _, shape := range selectShapes {
			vec := make([]float64, np)
			shape.fill(rand.New(rand.NewSource(int64(np))), vec)
			sorted := make([]uint64, np)
			for i, v := range vec {
				sorted[i] = magKey(v)
			}
			slices.Sort(sorted)
			limit := 2 * bits.Len(uint(np-1))
			for _, r := range []int{0, np / 100, np / 2, np - 1 - np/100, np - 1} {
				keys := make([]uint64, np)
				for i, v := range vec {
					keys[i] = magKey(v)
				}
				got, above, partitions := selectKth(keys, r)
				wantAbove := np - (r + 1)
				for wantAbove > 0 && sorted[np-wantAbove] == sorted[r] {
					wantAbove--
				}
				if got != sorted[r] || above != wantAbove {
					t.Errorf("%s np=%d r=%d: key %#x with %d above, want %#x with %d", shape.name, np, r, got, above, sorted[r], wantAbove)
				}
				if partitions > limit {
					t.Errorf("%s np=%d r=%d: %d partitions, bound is %d", shape.name, np, r, partitions, limit)
				}
				if np > smallSelect && partitions > limit/2 {
					t.Errorf("%s np=%d r=%d: %d partitions: the pivot is degenerating (cap %d)", shape.name, np, r, partitions, limit)
				}
				slices.Sort(keys)
				if !slices.Equal(keys, sorted) {
					t.Fatalf("%s np=%d r=%d: selectKth lost or invented keys", shape.name, np, r)
				}
			}
		}
	}
}

// lossyCodecs are the two error-compensated codecs, fresh per call.
func lossyCodecs(seed int64) []GradCodec {
	return []GradCodec{&TopK{ratio: 0.01}, &DSQ{bits: 4, seed: seed}}
}

func residualOf(c GradCodec) []float64 {
	if c, ok := c.(*TopK); ok {
		return c.gradRes
	}
	return c.(*DSQ).gradRes
}

// Error feedback conserves every coordinate, for both lossy codecs, at
// the golden width and the NN's, over seeds: what was delivered plus what
// the residual still holds is what was fed in.
func TestErrorFeedbackConservesEveryCoordinate(t *testing.T) {
	const rounds = 6
	for _, np := range []int{97, 49960} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, c := range lossyCodecs(seed) {
				rng := rand.New(rand.NewSource(seed))
				fed, delivered, out := make([]float64, np), make([]float64, np), make([]float64, np)
				var payload []byte
				for r := 0; r < rounds; r++ {
					g := randomVec(rng, np)
					for i, v := range g {
						fed[i] += v
					}
					payload = c.EncodeGrad(g, payload[:0])
					if err := c.DecodeGrad(payload, out); err != nil {
						t.Fatal(err)
					}
					for i, v := range out {
						delivered[i] += v
					}
				}
				res := residualOf(c)
				for i := range fed {
					if diff := math.Abs(delivered[i] + res[i] - fed[i]); diff > 1e-9 {
						t.Fatalf("%s np=%d seed=%d: coord %d leaks %g", c.Name(), np, seed, i, diff)
					}
				}
			}
		}
	}
}

// The sender's prev image is the receiver's image, bit for bit, after
// every downlink round: prev advances by exactly what the payload
// carries, which is what makes the delta its own error feedback.
func TestDownlinkPrevTracksReceiverBitwise(t *testing.T) {
	for _, np := range []int{97, 49960} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, c := range lossyCodecs(seed) {
				rng := rand.New(rand.NewSource(seed))
				params := randomVec(rng, np)
				prev := randomVec(rng, np)
				receiver := append([]float64(nil), prev...)
				var payload []byte
				for r := 0; r < 6; r++ {
					for i := 0; i < np; i += 1 + rng.Intn(3) { // a sparse, uneven step
						params[i] += 0.01 * rng.NormFloat64()
					}
					payload = c.EncodeSnap(params, prev, payload[:0])
					if err := c.DecodeSnap(payload, receiver); err != nil {
						t.Fatal(err)
					}
					for i := range prev {
						if math.Float64bits(prev[i]) != math.Float64bits(receiver[i]) {
							t.Fatalf("%s np=%d seed=%d round %d: coord %d prev %v != receiver %v", c.Name(), np, seed, r, i, prev[i], receiver[i])
						}
					}
				}
			}
		}
	}
}

// DSQ's stochastic rounding is unbiased: over many seeded encodes of one
// vector the mean decoded value sits within 4 standard errors of the
// input on every coordinate (plus float slack for the coordinates that
// round exactly, whose sample variance is 0).
func TestDSQUnbiased(t *testing.T) {
	const np, trials = 48, 2000
	vec := randomVec(rand.New(rand.NewSource(11)), np)
	for _, width := range []int{2, 4, 8} {
		sum, sumSq, out := make([]float64, np), make([]float64, np), make([]float64, np)
		for s := 0; s < trials; s++ {
			c := &DSQ{bits: width, seed: int64(1000*width + s)}
			if err := c.DecodeGrad(c.EncodeGrad(vec, nil), out); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				sum[i] += v
				sumSq[i] += v * v
			}
		}
		for i, v := range vec {
			mean := sum[i] / trials
			variance := math.Max(0, sumSq[i]/trials-mean*mean)
			if se := math.Sqrt(variance / trials); math.Abs(mean-v) > 4*se+1e-12 {
				t.Errorf("bits=%d coord %d: mean %g vs input %g is %.1f standard errors (%g) off", width, i, mean, v, math.Abs(mean-v)/se, se)
			}
		}
	}
}

// BenchmarkTopKEncode is the codec's CPU bill at the NN's width: up is
// the trainer's EncodeGrad of a dense Gaussian gradient, down the
// server's EncodeSnap of a delta with at most 1000 nonzeros.
func BenchmarkTopKEncode(b *testing.B) {
	const np = 49960
	rng := rand.New(rand.NewSource(1))
	b.Run("up", func(b *testing.B) {
		c := &TopK{ratio: 0.01}
		grad := randomVec(rng, np)
		var payload []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			payload = c.EncodeGrad(grad, payload[:0])
		}
	})
	b.Run("down", func(b *testing.B) {
		c := &TopK{ratio: 0.01}
		params := randomVec(rng, np)
		prev := append([]float64(nil), params...)
		moved := rng.Perm(np)[:1000]
		var payload []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, j := range moved {
				params[j] += 0.01
			}
			payload = c.EncodeSnap(params, prev, payload[:0])
		}
	})
}
