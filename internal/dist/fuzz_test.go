package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"toc/internal/formats"
)

// FuzzGradCodecDecode throws arbitrary bytes at every codec's two decode
// paths. The contract under fuzz: decoders never panic, and a decode
// that reports success must have produced only finite values from a
// payload that re-encodes to the same coordinate count — malformed input
// fails loudly, it never half-applies.
func FuzzGradCodecDecode(f *testing.F) {
	const np = 40
	rng := rand.New(rand.NewSource(1))
	g := make([]float64, np)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	// Seed with one valid payload per codec so the fuzzer starts from
	// structurally plausible inputs.
	f.Add((&Dense{}).EncodeGrad(g, nil))
	f.Add((&TopK{ratio: 0.1}).EncodeGrad(append([]float64(nil), g...), nil))
	f.Add((&DSQ{bits: 4, seed: 1}).EncodeGrad(append([]float64(nil), g...), nil))
	f.Add((&DSQ{bits: 8, seed: 1}).EncodeGrad(append([]float64(nil), g...), nil))
	f.Add([]byte{})
	f.Add([]byte{tagTopK, np, 0})
	f.Add([]byte{tagDSQ, np, 9, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, c := range []GradCodec{&Dense{}, &TopK{ratio: 0.1}, &DSQ{bits: 4, seed: 1}} {
			out := make([]float64, np)
			_ = c.DecodeGrad(payload, out)
			params := make([]float64, np)
			_ = c.DecodeSnap(payload, params)
		}
		// DSQ validates its scale, so a successful quantized decode is
		// always finite — raw-float codecs legitimately carry any bits.
		c := &DSQ{bits: 4, seed: 1}
		out := make([]float64, np)
		if err := c.DecodeGrad(payload, out); err == nil {
			for i, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("dsq decoded non-finite coord %d = %v", i, v)
				}
			}
		}
	})
}

// FuzzWireDecode feeds arbitrary frames to both ends of the wire: to a
// session's request decode, before and after a valid Join, and to a
// trainer's reply decode, from the Join reply on and after a valid one.
// Neither end panics, and neither allocates more than a fixed slack plus
// what the input's own bytes could fill: no length or count a frame
// claims sizes anything by itself.
func FuzzWireDecode(f *testing.F) {
	const np, batches = 40, 4
	frame := func(op byte, body []byte) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{op}, uint32(len(body))), body...)
	}
	u64 := func(vs ...uint64) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	payload := func() []byte {
		p := (&Dense{}).EncodeGrad(make([]float64, np), nil)
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(p))), p...)
	}
	joinReq := binary.LittleEndian.AppendUint32(nil, np)
	joinReq = binary.LittleEndian.AppendUint32(joinReq, batches)
	joinReq = append(binary.LittleEndian.AppendUint16(joinReq, 5), "dense"...)
	joinReply := append(u64(0, 0), make([]byte, 8*np)...)
	nextReply := binary.LittleEndian.AppendUint32(u64(0), 1)
	requests := [][]byte{
		frame(opJoin, joinReq),
		frame(opNext, nil),
		frame(opPull, nil),
		frame(opPush, append(u64(0, 0, 0), payload()...)),
		frame(opBye, nil),
	}
	replies := [][]byte{
		frame(opOK, joinReply),
		frame(opOK, nextReply),
		frame(opOK, nil), // Next when done, Push, Bye
		frame(opOK, append(u64(0), payload()...)),
		frame(opErr, []byte("dist: refused")),
	}
	for _, seed := range append(requests, replies...) {
		f.Add(seed)
	}
	// One whole session: a position computed, a pull, a clean exit.
	f.Add(bytes.Join(requests[1:], nil))
	f.Add(bytes.Join(replies[1:4], nil))

	// run calls fn and fails if it allocated more than the input can back.
	run := func(t *testing.T, side string, in []byte, fn func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(in)); got > limit {
			t.Fatalf("%s allocated %d bytes for a %d-byte input, limit %d", side, got, len(in), limit)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, prefix := range [][]byte{nil, requests[0]} {
			in := append(append([]byte(nil), prefix...), data...)
			// Unbounded staleness: a Next never blocks on the clock.
			srv, err := NewServer(ServerConfig{Epochs: 1 << 20, NumBatches: batches, LR: 0.1, Staleness: -1}, &stubModel{np: np})
			if err != nil {
				t.Fatal(err)
			}
			run(t, "session", in, func() { srv.ServeConn(&script{Reader: bytes.NewReader(in)}) })
		}
		for _, prefix := range [][]byte{nil, replies[0]} {
			in := append(append([]byte(nil), prefix...), data...)
			tr := NewTrainer(&script{Reader: bytes.NewReader(in)}, &stubModel{np: np}, stubSource(batches), TrainerConfig{})
			run(t, "trainer", in, func() { _ = tr.Run() })
		}
	})
}

// script is a connection whose peer's frames are fixed in advance and
// which discards what is written to it.
type script struct{ io.Reader }

func (*script) Write(p []byte) (int, error) { return len(p), nil }
func (*script) Close() error                { return nil }

// stubSource serves n empty batches, which stubModel's Grad ignores.
type stubSource int

func (s stubSource) NumBatches() int                               { return int(s) }
func (stubSource) Batch(int) (formats.CompressedMatrix, []float64) { return nil, nil }
