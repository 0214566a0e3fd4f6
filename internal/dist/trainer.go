package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"toc/internal/bitpack"
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
	conn  io.Closer
	w     wire
	m     ml.Model
	src   ml.BatchSource
	rel   ml.Releaser // src's release hook, nil if it has none
	codec GradCodec

	bound   int
	version int64
	params  []float64
	grad    []float64
}

// NewTrainer wraps a connection to a Server. m must have the server
// model's parameter count; src must serve the schedule's batch count.
func NewTrainer(conn io.ReadWriteCloser, m ml.Model, src ml.BatchSource, cfg TrainerConfig) *Trainer {
	codec := cfg.Codec
	if codec == nil {
		codec = &Dense{}
	}
	rel, _ := src.(ml.Releaser)
	return &Trainer{conn: conn, w: newWire(conn, m.NumParams()), m: m, src: src, rel: rel, codec: codec}
}

// Run joins the server and computes positions until the schedule is
// done. It returns nil on a clean finish; a returned error means this
// trainer is dead (the server requeues its in-flight work for the
// survivors).
func (t *Trainer) Run() error {
	defer t.conn.Close()
	if err := t.join(); err != nil {
		return err
	}
	for {
		pos, batch, ok, err := t.next()
		if err != nil {
			return err
		}
		if !ok {
			// The run is complete either way; a lost Bye only miscounts
			// a clean exit as a crash with nothing left to requeue.
			_, _ = t.call(t.w.begin(opBye))
			return nil
		}
		// The crash-injection point sits after the assignment, so an
		// injected death always leaves a position for the server to
		// requeue — what the CI crash run grep-gates.
		if err := faultpoint.Err("dist.trainer.compute"); err != nil {
			return err
		}
		if t.stalePull(pos) {
			if err := t.pull(); err != nil {
				return err
			}
		}
		// A refused push is an error like any other: this trainer is done,
		// and the server requeues the position for the survivors.
		if err := t.push(pos, t.compute(batch)); err != nil {
			return err
		}
	}
}

// call sends a request frame and reads the reply; an Err reply is the
// server's refusal.
func (t *Trainer) call(frame []byte) (bitpack.Reader, error) {
	if err := t.w.send(frame); err != nil {
		return bitpack.Reader{}, err
	}
	op, body, err := t.w.read()
	switch {
	case err != nil:
	case op == opErr:
		err = errors.New(string(body))
	case op != opOK:
		err = fmt.Errorf("dist: reply op %d", op)
	}
	return bitpack.NewReader(body), err
}

// join sends the handshake and takes the bootstrap image.
func (t *Trainer) join() error {
	np, name := t.m.NumParams(), t.codec.Name()
	frame := binary.LittleEndian.AppendUint32(t.w.begin(opJoin), uint32(np))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(t.src.NumBatches()))
	frame = binary.LittleEndian.AppendUint16(frame, uint16(len(name)))
	r, err := t.call(append(frame, name...))
	if err != nil {
		return err
	}
	t.bound, t.version = int(int64(r.U64())), int64(r.U64())
	t.params = r.F64s(np)
	if err := r.Done(); err != nil {
		return fmt.Errorf("dist: Join reply: %w", err)
	}
	t.m.SetParams(t.params)
	t.grad = make([]float64, np)
	return nil
}

// next asks for a position; ok is false once the schedule is done.
func (t *Trainer) next() (pos int64, batch int, ok bool, err error) {
	r, err := t.call(t.w.begin(opNext))
	if err != nil || r.Done() == nil { // an empty reply: done
		return 0, 0, false, err
	}
	pos, batch = int64(r.U64()), int(r.U32())
	if err := r.Done(); err != nil {
		return 0, 0, false, fmt.Errorf("dist: Next reply: %w", err)
	}
	if n := t.src.NumBatches(); batch < 0 || batch >= n {
		return 0, 0, false, fmt.Errorf("dist: server assigned batch %d of %d", batch, n)
	}
	return pos, batch, true, nil
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
	loss := t.m.Grad(x, y, t.grad)
	if t.rel != nil {
		t.rel.Release(x)
	}
	return loss
}

// push encodes the gradient for pos straight into the frame it sends.
func (t *Trainer) push(pos int64, loss float64) error {
	frame := binary.LittleEndian.AppendUint64(t.w.begin(opPush), uint64(pos))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(t.version))
	frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(loss))
	frame = append(frame, 0, 0, 0, 0)
	mark := len(frame)
	frame = t.codec.EncodeGrad(t.grad, frame)
	putLen(frame, mark)
	_, err := t.call(frame)
	return err
}

// pull refreshes the local replica to the server's current version.
func (t *Trainer) pull() error {
	r, err := t.call(t.w.begin(opPull))
	if err != nil {
		return err
	}
	version, payload := int64(r.U64()), r.Take(int(r.U32()))
	if err := r.Done(); err != nil {
		return fmt.Errorf("dist: Pull reply: %w", err)
	}
	if err := t.codec.DecodeSnap(payload, t.params); err != nil {
		return err
	}
	t.version = version
	t.m.SetParams(t.params)
	return nil
}
