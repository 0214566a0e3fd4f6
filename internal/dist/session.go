package dist

import (
	"fmt"
	"sync"
	"time"
)

// The wire protocol: five RPCs on service "PS", each a thin transport
// over engine.Loop. A trainer Joins (codec and shape handshake, bootstrap
// parameter image), then loops Next (Loop.Next), optionally Pull (a
// compressed delta bringing its image to the current version), computes,
// and Pushes the compressed gradient tagged with the version it was
// computed at (Loop.Submit). A push the loop refuses — a version outside
// the staleness bound among them — is an RPC error, and the trainer that
// gets one drops its connection. Bye leaves cleanly; vanishing without it
// is a crash (Loop.Abandon), whose positions the survivors compute.
//
// Every id, position and version a peer sends is untrusted: the session
// acts only as the owner its own Join created, and the loop refuses
// positions that owner does not hold. Trainers call strictly serially
// (net/rpc's synchronous Call); the session lock still guards its state
// so a misbehaving client cannot corrupt the server.

// JoinArgs is the trainer's handshake: the server validates that both
// sides agree on the codec and the schedule shape before any traffic.
type JoinArgs struct {
	Codec      string
	NumParams  int
	NumBatches int
}

// JoinReply carries the trainer id, the staleness bound, and the
// bootstrap parameter image (raw, uncompressed: the downlink codec's
// delta chain starts from this exact shared image).
type JoinReply struct {
	Trainer   int
	Staleness int
	Version   int64
	Params    []float64
}

// NextArgs requests the next position to compute.
type NextArgs struct{ Trainer int }

// NextReply is a released position (and its epoch batch index), or
// Done when the schedule is complete.
type NextReply struct {
	Done  bool
	Pos   int64
	Batch int
}

// PullArgs requests a parameter refresh.
type PullArgs struct{ Trainer int }

// PullReply is the compressed delta from the trainer's last-known image
// to the server's current parameters, tagged with the version (server
// clock) it brings the trainer to.
type PullReply struct {
	Version int64
	Payload []byte
}

// PushArgs submits one computed gradient: the position it was assigned,
// the version of the snapshot it was computed against, its mini-batch
// loss, and the codec payload.
type PushArgs struct {
	Trainer int
	Pos     int64
	Version int64
	Loss    float64
	Payload []byte
}

// PushReply is empty: a push is admitted, or refused with an RPC error.
type PushReply struct{}

// ByeArgs announces a clean departure.
type ByeArgs struct{ Trainer int }

// ByeReply is empty.
type ByeReply struct{}

// session is one trainer's server-side state: its identity and the
// downlink codec clone tracking the parameter image this trainer holds.
type session struct {
	srv *Server

	mu sync.Mutex
	//toc:guardedby mu
	id int // loop owner id; -1 until Join
	//toc:guardedby mu
	left bool // clean Bye received
	//toc:guardedby mu
	down GradCodec // per-trainer downlink codec (residual + prev chain)
	//toc:guardedby mu
	prev []float64 // the image the trainer currently holds
	//toc:guardedby mu
	paramsBuf []float64
	//toc:guardedby mu
	payloadBuf []byte
}

// meter holds the calling RPC handler until n bytes have crossed the
// link in direction dir: the one place the simulated wire reads the
// wall clock and sleeps.
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

// owner returns the loop owner this session joined as, -1 before Join.
func (x *session) owner() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.id
}

// Join implements the handshake RPC.
func (x *session) Join(args *JoinArgs, reply *JoinReply) error {
	s := x.srv
	if args.NumParams != s.np {
		return fmt.Errorf("dist: trainer model has %d params, server has %d", args.NumParams, s.np)
	}
	if args.NumBatches != s.n {
		return fmt.Errorf("dist: trainer source has %d batches, schedule has %d", args.NumBatches, s.n)
	}
	if want := s.proto.Name(); args.Codec != want {
		return fmt.Errorf("dist: trainer codec %q, server uses %q", args.Codec, want)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.id >= 0 {
		return fmt.Errorf("dist: trainer %d joined twice", x.id)
	}
	params := make([]float64, s.np)
	version, _ := s.loop.Params(0, params)
	x.id = s.loop.Join()
	x.down = s.proto.Clone()
	x.prev = append([]float64(nil), params...)
	s.count(func(st *ServerStats) {
		st.Joined++
		st.DownBytes += int64(8 * s.np)
		st.DenseDownBytes += int64(8 * s.np)
	})
	s.meter((*Link).Down, 8*s.np)

	reply.Trainer = x.id
	reply.Staleness = s.bound
	reply.Version = version
	reply.Params = params
	return nil
}

// Next implements the position-release RPC: it blocks until a requeued
// position is available, a fresh one is admissible, or the schedule is
// done.
func (x *session) Next(args *NextArgs, reply *NextReply) error {
	t, ok, err := x.srv.loop.Next(x.owner())
	reply.Done, reply.Pos, reply.Batch = !ok, t.Pos, t.Batch
	return err
}

// Pull implements the parameter-refresh RPC.
func (x *session) Pull(args *PullArgs, reply *PullReply) error {
	s := x.srv
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.id < 0 {
		return fmt.Errorf("dist: Pull before Join")
	}
	if len(x.paramsBuf) != s.np {
		x.paramsBuf = make([]float64, s.np)
	}
	reply.Version, _ = s.loop.Params(0, x.paramsBuf)
	x.payloadBuf = x.down.EncodeSnap(x.paramsBuf, x.prev, x.payloadBuf[:0])
	// The buffer is reused only after the client's next call, which it
	// cannot issue before reading this reply.
	reply.Payload = x.payloadBuf
	s.count(func(st *ServerStats) {
		st.Pulls++
		st.DownBytes += int64(len(reply.Payload))
		st.DenseDownBytes += int64(8 * s.np)
	})
	s.meter((*Link).Down, len(reply.Payload))
	return nil
}

// Push implements the gradient-submission RPC.
func (x *session) Push(args *PushArgs, reply *PushReply) error {
	s := x.srv
	id := x.owner()
	if id < 0 {
		return fmt.Errorf("dist: Push before Join")
	}
	s.meter((*Link).Up, len(args.Payload))
	// Decode outside every lock: GradCodec decode methods are stateless,
	// so the shared prototype serves every session.
	grad := s.loop.GradBuf()
	if err := s.proto.DecodeGrad(args.Payload, grad); err != nil {
		err = fmt.Errorf("dist: push from trainer %d: %w", args.Trainer, err)
		s.loop.Fail(err)
		return err
	}
	s.count(func(st *ServerStats) {
		st.Pushes++
		st.UpBytes += int64(len(args.Payload))
		st.DenseUpBytes += int64(8 * s.np)
	})
	return s.loop.Submit(id, args.Pos, args.Version, args.Loss, grad)
}

// Bye implements the clean-departure RPC.
func (x *session) Bye(args *ByeArgs, reply *ByeReply) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.id < 0 {
		return fmt.Errorf("dist: Bye before Join")
	}
	if !x.left {
		x.left = true
		x.srv.count(func(st *ServerStats) { st.Left++ })
	}
	return nil
}
