package dist

import (
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"

	"toc/internal/checkpoint"
	"toc/internal/engine"
	"toc/internal/ml"
)

// ServerConfig sizes a parameter-server run. The server owns the model,
// the update clock and the visit schedule; trainers own the data (every
// trainer must serve the same NumBatches batch schedule).
type ServerConfig struct {
	// Epochs and NumBatches define the schedule: Epochs×NumBatches
	// global positions, applied in order.
	Epochs     int
	NumBatches int
	// LR is the learning rate applied per admitted gradient.
	LR float64
	// Seed identifies the run, as it does for the local engine: a resume
	// refuses a checkpoint of another seed. Every epoch visits the batches
	// in ingest order.
	Seed int64
	// Staleness bounds how many parameter updates a pushed gradient's
	// snapshot version may trail the server clock; 0 reproduces the
	// serial trajectory (with one trainer and the dense codec,
	// bitwise), negative free-runs Hogwild-style.
	Staleness int
	// Codec compresses gradient traffic; nil is the dense baseline.
	// The server clones it once per trainer for downlink state.
	Codec GradCodec
	// Link, when non-nil, meters every payload through the simulated
	// NIC, so compression shows up as wall-clock.
	Link *Link
	// Checkpoint, CheckpointEvery and Resume mirror the local engine: a
	// resume continues the schedule at the checkpointed clock. Codec
	// residual state is deliberately not checkpointed — error feedback
	// makes a dropped residual an accuracy rounding, never corruption —
	// so only dense (or staleness-0 single-trainer) resumes are bitwise.
	Checkpoint      *checkpoint.Writer
	CheckpointEvery int
	Resume          *checkpoint.State
	// OnStep observes every applied update with its global position and
	// admitted mini-batch loss, serially and outside the server's locks.
	// The identity tests compare these sequences bitwise against the
	// local engine's.
	OnStep func(step int64, loss float64)
}

// ServerStats counts one distributed run: the loop's admission counters
// (Updates, Rejected, Duplicates, staleness) plus membership and wire
// accounting.
type ServerStats struct {
	engine.LoopStats
	// Joined/Left/Disconnects/Reassigned: trainer membership. A
	// disconnect without Bye is a crash; its in-flight positions are
	// requeued (Reassigned) to surviving trainers.
	Joined      int64
	Left        int64
	Disconnects int64
	Reassigned  int64
	Pulls       int64
	Pushes      int64
	// Wire accounting: payload bytes actually moved per direction, and
	// what the dense baseline (8 bytes/coordinate per message) would
	// have moved for the same message sequence.
	UpBytes        int64
	DownBytes      int64
	DenseUpBytes   int64
	DenseDownBytes int64
}

// WireRatio is payload bytes moved over what dense would have moved —
// the compression win TestTopKConvergenceAndWireRatio gates.
func (s ServerStats) WireRatio() float64 {
	dense := s.DenseUpBytes + s.DenseDownBytes
	if dense == 0 {
		return 1
	}
	return float64(s.UpBytes+s.DownBytes) / float64(dense)
}

// Server is the parameter server: engine.Loop's front end for remote
// workers. The loop owns the model, the clock and the schedule; the
// server adds the gradient codec, the metered link, per-trainer downlink
// state and wire accounting, and turns a vanished connection into
// Loop.Abandon.
type Server struct {
	loop  *engine.Loop
	n     int
	np    int
	bound int
	proto GradCodec
	link  *Link

	mu sync.Mutex
	//toc:guardedby mu
	stats ServerStats // membership and wire counters; LoopStats lives in loop
}

// NewServer builds a parameter server around m (which it owns for the
// duration of the run — read the final parameters from m after Wait).
func NewServer(cfg ServerConfig, m ml.Model) (*Server, error) {
	if cfg.NumBatches <= 0 {
		return nil, fmt.Errorf("dist: need NumBatches > 0, got %d", cfg.NumBatches)
	}
	loop, err := engine.NewLoop(engine.LoopConfig{
		Kind: checkpoint.KindDist, Epochs: cfg.Epochs, NumBatches: cfg.NumBatches, LR: cfg.LR,
		Seed: cfg.Seed, Staleness: cfg.Staleness,
		Checkpoint: cfg.Checkpoint, CheckpointEvery: cfg.CheckpointEvery, Resume: cfg.Resume,
		OnStep: cfg.OnStep,
	}, m, nil)
	if err != nil {
		return nil, err
	}
	proto := cfg.Codec
	if proto == nil {
		proto = &Dense{}
	}
	return &Server{
		loop: loop, n: cfg.NumBatches, np: m.NumParams(), bound: max(cfg.Staleness, -1),
		proto: proto, link: cfg.Link,
	}, nil
}

// Serve accepts trainer connections until the listener closes. Run it
// on its own goroutine; close the listener after Wait returns.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// ServeConn runs one trainer's RPC session to completion; it returns
// when the peer disconnects. A disconnect without a clean Bye is
// treated as a trainer crash: the session's in-flight positions are
// requeued for the surviving trainers, so the run still completes —
// node failure is worker failure over a wire.
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	sess := &session{srv: s, id: -1}
	rs := rpc.NewServer()
	// RegisterName (not Register) because session is deliberately
	// unexported: the RPC surface is the five methods below, nothing
	// else.
	if err := rs.RegisterName("PS", sess); err != nil {
		panic(fmt.Sprintf("dist: register session: %v", err))
	}
	rs.ServeConn(conn)
	sess.mu.Lock()
	id, left := sess.id, sess.left
	sess.mu.Unlock()
	if id < 0 {
		return // never joined: holds nothing
	}
	requeued := s.loop.Abandon(id)
	if !left {
		s.count(func(st *ServerStats) {
			st.Disconnects++
			st.Reassigned += int64(requeued)
		})
	}
}

// count updates the server's own counters under its lock.
func (s *Server) count(update func(st *ServerStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	update(&s.stats)
}

// Halt asks the run to stop: no new positions are released, a final
// checkpoint is written synchronously, and Wait returns
// engine.ErrHalted. Safe from any goroutine, e.g. a signal handler.
func (s *Server) Halt() { s.loop.Halt() }

// Wait blocks until the schedule completes (or Halt lands, or the run
// fails) and returns the result. Read the final parameters from the
// model passed to NewServer.
func (s *Server) Wait() (*ml.TrainResult, error) { return s.loop.Wait() }

// Stats returns a snapshot of the run counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.LoopStats = s.loop.Stats()
	return st
}

// Clock returns the applied-update count.
func (s *Server) Clock() int64 { return s.loop.Clock() }
