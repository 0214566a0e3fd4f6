package main

import (
	"io"

	"toc/internal/dist"
	"toc/internal/formats"
	"toc/internal/matrix"
	"toc/internal/ml"
	"toc/internal/storage"
)

// The decorators below sit at the interface seams the training loops
// already use and record one span per call. They change no result: every
// method forwards to the wrapped value (TestDecoratorTransparency).
// Only the traced run installs them; end-to-end metrics come from
// undecorated runs.

// Span names. The layer prefix is the package the timed call enters.
const (
	spanBatchWait  = "storage.batch_wait"
	spanTreeBuild  = "core.tree_build"
	spanMulVec     = "core.mulvec"
	spanVecMul     = "core.vecmul"
	spanMulMat     = "core.mulmat"
	spanMatMul     = "core.matmul"
	spanGrad       = "ml.grad"
	spanApply      = "ml.apply"
	spanSnapshot   = "engine.snapshot"
	spanEncodeGrad = "dist.encode_grad"
	spanDecodeGrad = "dist.decode_grad"
	spanEncodeSnap = "dist.encode_snap"
	spanDecodeSnap = "dist.decode_snap"
	spanConnRead   = "dist.conn_read"
	spanConnWrite  = "dist.conn_write"
)

// tracedSource times the wait in Batch and hands the loop a batch that
// records its own kernel calls.
type tracedSource struct {
	ml.BatchSource
	tr  *tracer
	nnz []int64 // nonzeros per batch index, for the kernels' work counts
}

func (s *tracedSource) Batch(i int) (formats.CompressedMatrix, []float64) {
	sp := s.tr.begin(spanBatchWait, s.tr.visits.Add(1)-1, -1)
	x, y := s.BatchSource.Batch(i)
	s.tr.end(sp)
	return &tracedBatch{ParallelOps: x.(formats.ParallelOps), tr: s.tr, visit: sp.Step, nnz: s.nnz[i]}, y
}

// tracedPrefetcher is tracedSource for the spill prefetcher: embedding
// the concrete type keeps the order and request hints the engines probe
// for (SetOrder, SetNextOrder, Request) reachable.
type tracedPrefetcher struct {
	*storage.Prefetcher
	src tracedSource
}

func (p *tracedPrefetcher) Batch(i int) (formats.CompressedMatrix, []float64) {
	return p.src.Batch(i)
}

// traceSource decorates src when tr is non-nil.
func traceSource(src ml.BatchSource, tr *tracer, nnz []int64) ml.BatchSource {
	if tr == nil {
		return src
	}
	ts := tracedSource{BatchSource: src, tr: tr, nnz: nnz}
	if pf, ok := src.(*storage.Prefetcher); ok {
		return &tracedPrefetcher{Prefetcher: pf, src: ts}
	}
	return &ts
}

// tracedBatch is one visit's view of a compressed mini-batch. The model
// decorator copies it with the gradient span as parent, so the plan and
// kernel spans of concurrent gradients never share state; plans are only
// ever built inside a gradient.
type tracedBatch struct {
	formats.ParallelOps
	tr     *tracer
	visit  int64
	nnz    int64
	parent *span
}

var _ formats.ParallelOps = (*tracedBatch)(nil)

func (b *tracedBatch) NewKernelPlan() formats.KernelPlan {
	sp := b.tr.child(spanTreeBuild, *b.parent)
	p := b.ParallelOps.NewKernelPlan()
	b.tr.end(sp)
	return &tracedPlan{KernelPlanInto: p.(formats.KernelPlanInto), b: b}
}

// tracedPlan times the four Table 1 kernels of one batch's plan.
type tracedPlan struct {
	formats.KernelPlanInto
	b *tracedBatch
}

func (p *tracedPlan) kernel(name string, width int) span {
	sp := p.b.tr.child(name, *p.b.parent)
	sp.Work = p.b.nnz * int64(width)
	return sp
}

func (p *tracedPlan) MulVec(v []float64, workers int) []float64 {
	return p.MulVecInto(nil, v, workers)
}

func (p *tracedPlan) VecMul(v []float64, workers int) []float64 {
	return p.VecMulInto(nil, v, workers)
}

func (p *tracedPlan) MulMat(m *matrix.Dense, workers int) *matrix.Dense {
	return p.MulMatInto(nil, m, workers)
}

func (p *tracedPlan) MatMul(m *matrix.Dense, workers int) *matrix.Dense {
	return p.MatMulInto(nil, m, workers)
}

func (p *tracedPlan) MulVecInto(dst, v []float64, workers int) []float64 {
	sp := p.kernel(spanMulVec, 1)
	defer p.b.tr.end(sp)
	return p.KernelPlanInto.MulVecInto(dst, v, workers)
}

func (p *tracedPlan) VecMulInto(dst, v []float64, workers int) []float64 {
	sp := p.kernel(spanVecMul, 1)
	defer p.b.tr.end(sp)
	return p.KernelPlanInto.VecMulInto(dst, v, workers)
}

func (p *tracedPlan) MulMatInto(dst, m *matrix.Dense, workers int) *matrix.Dense {
	sp := p.kernel(spanMulMat, m.Cols())
	defer p.b.tr.end(sp)
	return p.KernelPlanInto.MulMatInto(dst, m, workers)
}

func (p *tracedPlan) MatMulInto(dst, m *matrix.Dense, workers int) *matrix.Dense {
	sp := p.kernel(spanMatMul, m.Rows())
	defer p.b.tr.end(sp)
	return p.KernelPlanInto.MatMulInto(dst, m, workers)
}

// tracedModel times gradient, update and snapshot calls. Step is split
// into its documented parts (ml.GradModel: "Step is exactly Grad into a
// buffer followed by ApplyGrad of that buffer"), so the serial loop
// reports the same grad and apply spans as the engines.
type tracedModel struct {
	ml.SnapshotModel
	tr      *tracer
	replica int32 // 0 is the live model, clones count up
	step    []float64
}

// traceModel decorates m when tr is non-nil.
func traceModel(m ml.SnapshotModel, tr *tracer) ml.SnapshotModel {
	if tr == nil {
		return m
	}
	return &tracedModel{SnapshotModel: m, tr: tr}
}

func (m *tracedModel) Step(x formats.CompressedMatrix, y []float64, lr float64) float64 {
	if m.step == nil {
		m.step = make([]float64, m.NumParams())
	}
	loss := m.Grad(x, y, m.step)
	m.ApplyGrad(m.step, lr)
	return loss
}

func (m *tracedModel) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	tb := x.(*tracedBatch) // the decorated source hands out nothing else
	sp := m.tr.begin(spanGrad, tb.visit, m.replica)
	own := *tb
	own.parent = &sp
	loss := m.SnapshotModel.Grad(&own, y, out)
	m.tr.end(sp)
	return loss
}

func (m *tracedModel) ApplyGrad(g []float64, lr float64) {
	sp := m.tr.begin(spanApply, m.tr.updates.Add(1)-1, m.replica)
	m.SnapshotModel.ApplyGrad(g, lr)
	m.tr.end(sp)
}

func (m *tracedModel) Params(out []float64) {
	sp := m.tr.begin(spanSnapshot, -1, m.replica)
	m.SnapshotModel.Params(out)
	m.tr.end(sp)
}

func (m *tracedModel) SetParams(p []float64) {
	sp := m.tr.begin(spanSnapshot, -1, m.replica)
	m.SnapshotModel.SetParams(p)
	m.tr.end(sp)
}

func (m *tracedModel) Clone() ml.SnapshotModel {
	sp := m.tr.begin(spanSnapshot, -1, m.replica)
	c := m.SnapshotModel.Clone()
	m.tr.end(sp)
	return &tracedModel{SnapshotModel: c, tr: m.tr, replica: m.tr.clones.Add(1)}
}

// SetKernelWorkers forwards the engines' kernel-parallelism knob, which
// they reach through a type assertion the embedded interface would hide.
func (m *tracedModel) SetKernelWorkers(workers int) {
	if kp, ok := m.SnapshotModel.(ml.KernelParallel); ok {
		kp.SetKernelWorkers(workers)
	}
}

// tracedCodec times both directions of the gradient codec; Work is the
// payload size in bytes.
type tracedCodec struct {
	dist.GradCodec
	tr    *tracer
	clone int32 // 0 is the server's prototype
}

// traceCodec decorates c when tr is non-nil.
func traceCodec(c dist.GradCodec, tr *tracer) dist.GradCodec {
	if tr == nil {
		return c
	}
	return &tracedCodec{GradCodec: c, tr: tr}
}

func (c *tracedCodec) EncodeGrad(grad []float64, dst []byte) []byte {
	sp := c.tr.begin(spanEncodeGrad, -1, c.clone)
	out := c.GradCodec.EncodeGrad(grad, dst)
	sp.Work = int64(len(out) - len(dst))
	c.tr.end(sp)
	return out
}

func (c *tracedCodec) DecodeGrad(payload []byte, out []float64) error {
	sp := c.tr.begin(spanDecodeGrad, -1, c.clone)
	sp.Work = int64(len(payload))
	defer c.tr.end(sp)
	return c.GradCodec.DecodeGrad(payload, out)
}

func (c *tracedCodec) EncodeSnap(params, prev []float64, dst []byte) []byte {
	sp := c.tr.begin(spanEncodeSnap, -1, c.clone)
	out := c.GradCodec.EncodeSnap(params, prev, dst)
	sp.Work = int64(len(out) - len(dst))
	c.tr.end(sp)
	return out
}

func (c *tracedCodec) DecodeSnap(payload []byte, params []float64) error {
	sp := c.tr.begin(spanDecodeSnap, -1, c.clone)
	sp.Work = int64(len(payload))
	defer c.tr.end(sp)
	return c.GradCodec.DecodeSnap(payload, params)
}

func (c *tracedCodec) Clone() dist.GradCodec {
	return &tracedCodec{GradCodec: c.GradCodec.Clone(), tr: c.tr, clone: c.tr.clones.Add(1)}
}

// tracedConn times the trainer's side of the wire: how long each Read
// and Write of its connection blocks, and how many bytes it moved.
type tracedConn struct {
	io.ReadWriteCloser
	tr      *tracer
	trainer int32
}

// traceConn decorates trainer i's connection when tr is non-nil.
func traceConn(c io.ReadWriteCloser, tr *tracer, trainer int) io.ReadWriteCloser {
	if tr == nil {
		return c
	}
	return &tracedConn{ReadWriteCloser: c, tr: tr, trainer: int32(trainer)}
}

func (c *tracedConn) Read(p []byte) (int, error) {
	sp := c.tr.begin(spanConnRead, -1, c.trainer)
	n, err := c.ReadWriteCloser.Read(p)
	sp.Work = int64(n)
	c.tr.end(sp)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	sp := c.tr.begin(spanConnWrite, -1, c.trainer)
	n, err := c.ReadWriteCloser.Write(p)
	sp.Work = int64(n)
	c.tr.end(sp)
	return n, err
}
