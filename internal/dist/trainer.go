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
	// PullSlack is a test-only knob: the trainer tolerates a cached
	// snapshot up to PullSlack updates staler than the bound before
	// refreshing, deliberately pushing gradients the server must
	// reject — the distributed mirror of the async engine's
	// releaseSlack, exercising the reject-recompute path on demand.
	PullSlack int
}

// TrainerStats counts one trainer's run; read it after Run returns.
type TrainerStats struct {
	// Steps counts assigned positions computed (including recomputes).
	Steps int64
	// Recomputes counts server rejections this trainer recovered from.
	Recomputes int64
	// Pulls counts parameter refreshes.
	Pulls int64
	// UpBytes/DownBytes are payload bytes from this trainer's view
	// (excluding the bootstrap image).
	UpBytes   int64
	DownBytes int64
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
	slack int

	id      int
	bound   int
	version int64
	params  []float64
	grad    []float64
	payload []byte
	stats   TrainerStats
}

// NewTrainer wraps a connection to a Server. m must have the server
// model's parameter count; src must serve the schedule's batch count.
func NewTrainer(conn io.ReadWriteCloser, m ml.Model, src ml.BatchSource, cfg TrainerConfig) *Trainer {
	codec := cfg.Codec
	if codec == nil {
		codec = &Dense{}
	}
	return &Trainer{c: rpc.NewClient(conn), m: m, src: src, codec: codec, slack: cfg.PullSlack, id: -1}
}

// Stats returns the trainer's counters; call it after Run returns.
func (t *Trainer) Stats() TrainerStats { return t.stats }

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
		loss := t.compute(nr.Batch)
		var pr PushReply
		if err := t.push(nr.Pos, loss, &pr); err != nil {
			return err
		}
		if pr.Rejected {
			// Reject-recompute: credit the refused payload back to the
			// residual, refresh to a version the bound admits (a fresh
			// pull's version is at most pos behind — guaranteed
			// admissible), and recompute.
			t.stats.Recomputes++
			if err := t.codec.ReturnGrad(t.payload); err != nil {
				return err
			}
			if err := t.pull(); err != nil {
				return err
			}
			loss = t.compute(nr.Batch)
			if err := t.push(nr.Pos, loss, &pr); err != nil {
				return err
			}
			if pr.Rejected {
				return fmt.Errorf("dist: position %d rejected after a fresh pull (version %d, clock %d)", nr.Pos, t.version, pr.Clock)
			}
		}
	}
}

// stalePull decides whether the cached image is too old to compute pos
// against. With slack 0 a pull happens whenever admission is not
// guaranteed, so a healthy trainer is never rejected; slack > 0
// deliberately under-pulls.
func (t *Trainer) stalePull(pos int64) bool {
	if t.bound < 0 {
		// Unbounded staleness: refresh every step anyway — a free-running
		// trainer that never pulled would train on frozen parameters.
		return true
	}
	return pos-t.version > int64(t.bound)+int64(t.slack)
}

// compute evaluates one mini-batch gradient at the current replica.
func (t *Trainer) compute(batch int) float64 {
	x, y := t.src.Batch(batch)
	t.stats.Steps++
	return t.m.Grad(x, y, t.grad)
}

// push encodes and submits the gradient for pos.
func (t *Trainer) push(pos int64, loss float64, pr *PushReply) error {
	// Zero the reply: gob omits zero-valued fields, so a reused reply
	// struct would keep a previous push's Rejected=true.
	*pr = PushReply{}
	t.payload = t.codec.EncodeGrad(t.grad, t.payload[:0])
	err := t.c.Call("PS.Push", &PushArgs{
		Trainer: t.id, Pos: pos, Version: t.version, Loss: loss, Payload: t.payload,
	}, pr)
	if err != nil {
		return err
	}
	t.stats.UpBytes += int64(len(t.payload))
	return nil
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
	t.stats.Pulls++
	t.stats.DownBytes += int64(len(pr.Payload))
	return nil
}
