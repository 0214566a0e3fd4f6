package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"toc/internal/bitpack"
)

// The wire protocol: five requests, each a thin transport over
// engine.Loop. A trainer Joins, then loops Next (Loop.Next), Pull when
// its image is too old, computes, and Pushes (Loop.Submit); Bye leaves
// cleanly, and vanishing without it is a crash (Loop.Abandon). Request →
// OK reply bodies, little-endian; a payload is a GradCodec image behind a
// u32 length:
//
//	Join  u32 NumParams, u32 NumBatches, u16-length codec name → i64
//	      staleness bound, i64 version, NumParams float64s (the raw image
//	      the downlink delta chain starts from)
//	Next  → empty once the schedule is done, else i64 position, u32 batch
//	Pull  → i64 version, payload (the delta to the parameters at it)
//	Push  i64 position, i64 version computed at, float64 loss, payload
//	Bye
//
// A body is read whole or refused. A refused request — one that does not
// decode, comes before Join, or pushes what the loop refuses (a version
// outside the staleness bound among them) — gets an Err reply carrying
// the reason and ends the session; a frame over the bound or cut short
// ends it unanswered. Every position and version a peer sends is
// untrusted: the session acts only as the owner its own Join created, and
// the loop refuses positions that owner does not hold.

// session is one trainer's server-side state. ServeConn answers its
// requests one at a time on one goroutine, so it needs no lock.
type session struct {
	srv    *Server
	w      wire
	id     int       // loop owner id; -1 until Join
	left   bool      // clean Bye received
	down   GradCodec // per-trainer downlink codec (residual + prev chain)
	prev   []float64 // the image the trainer currently holds
	params []float64 // the server's parameters at the last Join or Pull
}

// serve reads one request, answers it and writes the reply. It reports
// whether the session goes on.
func (x *session) serve() bool {
	op, body, err := x.w.read()
	if err != nil {
		return false // hung up, cut short or over the bound: nothing to answer
	}
	r := bitpack.NewReader(body)
	reply, err := x.answer(op, &r)
	if err != nil {
		msg := err.Error()
		reply = append(x.w.begin(opErr), msg[:min(len(msg), x.w.bound)]...)
	}
	return x.w.send(reply) == nil && err == nil
}

// answer decodes a request, acts on it and returns its reply frame.
func (x *session) answer(op byte, r *bitpack.Reader) ([]byte, error) {
	switch {
	case op < opJoin || op > opBye:
		return nil, fmt.Errorf("dist: unknown op %d", op)
	case op == opJoin:
		return x.join(r)
	case x.id < 0:
		return nil, fmt.Errorf("dist: %s before Join", opName[op])
	case op == opPush:
		return x.push(r)
	case r.Done() != nil: // Next, Pull and Bye have empty bodies
		return nil, fmt.Errorf("dist: %s: %w", opName[op], r.Done())
	case op == opNext:
		return x.next()
	case op == opPull:
		return x.pull(), nil
	}
	if !x.left { // Bye
		x.left = true
		x.srv.count(func(st *ServerStats) { st.Left++ })
	}
	return x.w.begin(opOK), nil
}

// meter holds the calling session until n bytes have crossed the link in
// direction dir: the one place the simulated wire reads the wall clock
// and sleeps.
//
//toc:timing
func (s *Server) meter(dir func(*Link, time.Time, int) time.Time, n int) {
	if s.link == nil {
		return
	}
	if wait := time.Until(dir(s.link, time.Now(), n)); wait > 0 {
		time.Sleep(wait)
	}
}

// join validates that both sides agree on the codec and the schedule
// shape, and ships the bootstrap image raw.
func (x *session) join(r *bitpack.Reader) ([]byte, error) {
	s := x.srv
	np, n, codec := int(r.U32()), int(r.U32()), r.Str()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("dist: Join: %w", err)
	}
	switch want := s.proto.Name(); {
	case x.id >= 0:
		return nil, fmt.Errorf("dist: trainer %d joined twice", x.id)
	case np != s.np:
		return nil, fmt.Errorf("dist: trainer model has %d params, server has %d", np, s.np)
	case n != s.n:
		return nil, fmt.Errorf("dist: trainer source has %d batches, schedule has %d", n, s.n)
	case codec != want:
		return nil, fmt.Errorf("dist: trainer codec %q, server uses %q", codec, want)
	}
	x.params = make([]float64, s.np)
	version, _ := s.loop.Params(0, x.params)
	x.id = s.loop.Join()
	x.down = s.proto.Clone()
	x.prev = slices.Clone(x.params)
	s.count(func(st *ServerStats) {
		st.Joined++
		st.DownBytes += int64(8 * s.np)
		st.DenseDownBytes += int64(8 * s.np)
	})
	s.meter((*Link).Down, 8*s.np)

	frame := binary.LittleEndian.AppendUint64(x.w.begin(opOK), uint64(s.bound))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(version))
	return bitpack.AppendF64s(frame, x.params), nil
}

// next blocks until a requeued position is available, a fresh one is
// admissible, or the schedule is done.
func (x *session) next() ([]byte, error) {
	t, ok, err := x.srv.loop.Next(x.id)
	frame := x.w.begin(opOK)
	if !ok {
		return frame, err
	}
	frame = binary.LittleEndian.AppendUint64(frame, uint64(t.Pos))
	return binary.LittleEndian.AppendUint32(frame, uint32(t.Batch)), nil
}

// pull encodes the delta to the current parameters straight into the
// reply frame.
func (x *session) pull() []byte {
	s := x.srv
	version, _ := s.loop.Params(0, x.params)
	frame := binary.LittleEndian.AppendUint64(x.w.begin(opOK), uint64(version))
	frame = append(frame, 0, 0, 0, 0)
	mark := len(frame)
	frame = x.down.EncodeSnap(x.params, x.prev, frame)
	putLen(frame, mark)
	n := len(frame) - mark
	s.count(func(st *ServerStats) {
		st.Pulls++
		st.DownBytes += int64(n)
		st.DenseDownBytes += int64(8 * s.np)
	})
	s.meter((*Link).Down, n)
	return frame
}

// push decodes a gradient and submits it to the loop.
func (x *session) push(r *bitpack.Reader) ([]byte, error) {
	s := x.srv
	pos, version, loss := int64(r.U64()), int64(r.U64()), math.Float64frombits(r.U64())
	payload := r.Take(int(r.U32()))
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("dist: Push: %w", err)
	}
	s.meter((*Link).Up, len(payload))
	// GradCodec decode methods are stateless, so the shared prototype
	// serves every session at once.
	grad := s.loop.GradBuf()
	if err := s.proto.DecodeGrad(payload, grad); err != nil {
		err = fmt.Errorf("dist: push from trainer %d: %w", x.id, err)
		s.loop.Fail(err)
		return nil, err
	}
	s.count(func(st *ServerStats) {
		st.Pushes++
		st.UpBytes += int64(len(payload))
		st.DenseUpBytes += int64(8 * s.np)
	})
	if err := s.loop.Submit(x.id, pos, version, loss, grad); err != nil {
		return nil, err
	}
	return x.w.begin(opOK), nil
}
