package dist

import (
	"fmt"
	"io"
	"net/rpc"

	"toc/internal/faultpoint"
	"toc/internal/ml"
)

// TrainerConfig sizes one trainer process.
type TrainerConfig struct {
	// Codec must match the server's spec; nil is the dense baseline.
	Codec GradCodec
}

// Trainer is one worker process of a distributed run: it owns a local
// model replica (shape-identical to the server's), a batch source
// serving the shared schedule, and the uplink half of the codec. It is
// single-goroutine; run one Trainer per connection.
type Trainer struct {
	c     *rpc.Client
	m     ml.Model
	src   ml.BatchSource
	codec GradCodec

	id      int
	bound   int
	version int64
	params  []float64
	grad    []float64
	payload []byte
}

// NewTrainer wraps a connection to a Server. m must have the server
// model's parameter count; src must serve the schedule's batch count.
func NewTrainer(conn io.ReadWriteCloser, m ml.Model, src ml.BatchSource, cfg TrainerConfig) *Trainer {
	codec := cfg.Codec
	if codec == nil {
		codec = &Dense{}
	}
	return &Trainer{c: rpc.NewClient(conn), m: m, src: src, codec: codec, id: -1}
}

// Run joins the server and computes positions until the schedule is
// done. It returns nil on a clean finish; a returned error means this
// trainer is dead (the server requeues its in-flight work for the
// survivors).
func (t *Trainer) Run() error {
	defer t.c.Close()
	np := t.m.NumParams()
	var jr JoinReply
	err := t.c.Call("PS.Join", &JoinArgs{
		Codec: t.codec.Name(), NumParams: np, NumBatches: t.src.NumBatches(),
	}, &jr)
	if err != nil {
		return err
	}
	if len(jr.Params) != np {
		return fmt.Errorf("dist: join image has %d params, model has %d", len(jr.Params), np)
	}
	t.id, t.bound, t.version = jr.Trainer, jr.Staleness, jr.Version
	t.params = jr.Params
	t.m.SetParams(t.params)
	t.grad = make([]float64, np)

	for {
		var nr NextReply
		if err := t.c.Call("PS.Next", &NextArgs{Trainer: t.id}, &nr); err != nil {
			return err
		}
		if nr.Done {
			var br ByeReply
			// The run is complete either way; a lost Bye only miscounts
			// a clean exit as a crash with nothing left to requeue.
			_ = t.c.Call("PS.Bye", &ByeArgs{Trainer: t.id}, &br)
			return nil
		}
		// The crash-injection point sits after the assignment, so an
		// injected death always leaves a position for the server to
		// requeue — what the CI crash run grep-gates.
		if err := faultpoint.Err("dist.trainer.compute"); err != nil {
			return err
		}
		if t.stalePull(nr.Pos) {
			if err := t.pull(); err != nil {
				return err
			}
		}
		// A refused push is an error like any other: this trainer is done,
		// and the server requeues the position for the survivors.
		if err := t.push(nr.Pos, t.compute(nr.Batch)); err != nil {
			return err
		}
	}
}

// stalePull decides whether the cached image is too old to compute pos
// against: a pull happens whenever admission is not guaranteed, so the
// server never refuses this trainer's push for staleness. Unbounded
// staleness refreshes every step anyway — a free-running trainer that
// never pulled would train on frozen parameters.
func (t *Trainer) stalePull(pos int64) bool {
	return t.bound < 0 || pos-t.version > int64(t.bound)
}

// compute evaluates one mini-batch gradient at the current replica.
func (t *Trainer) compute(batch int) float64 {
	x, y := t.src.Batch(batch)
	return t.m.Grad(x, y, t.grad)
}

// push encodes and submits the gradient for pos.
func (t *Trainer) push(pos int64, loss float64) error {
	t.payload = t.codec.EncodeGrad(t.grad, t.payload[:0])
	return t.c.Call("PS.Push", &PushArgs{
		Trainer: t.id, Pos: pos, Version: t.version, Loss: loss, Payload: t.payload,
	}, &PushReply{})
}

// pull refreshes the local replica to the server's current version.
func (t *Trainer) pull() error {
	var pr PullReply
	if err := t.c.Call("PS.Pull", &PullArgs{Trainer: t.id}, &pr); err != nil {
		return err
	}
	if err := t.codec.DecodeSnap(pr.Payload, t.params); err != nil {
		return err
	}
	t.version = pr.Version
	t.m.SetParams(t.params)
	return nil
}
