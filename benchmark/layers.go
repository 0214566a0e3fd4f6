package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/core"
	"toc/internal/ml"
	"toc/internal/storage"
)

// probeBatches is how many of a workload's batches the direct probes
// time; enough for a steady median at a few hundred milliseconds' cost.
const probeBatches = 48

// traced makes the workload's traced run — one third of the epochs, with
// the decorators installed — and the direct probes of single layers, and
// fills the per-layer metrics from both.
func (r *result) traced(lp loop, e *env, o options, epochs int, untracedRate float64) error {
	src, err := lp.source()
	if err != nil {
		return err
	}
	nnz, stored := scan(src)
	var totalNNZ int64
	for _, n := range nnz {
		totalNNZ += n
	}
	r.layer.set("core.bytes_per_nnz", float64(stored)/float64(totalNNZ))
	if err := r.probeCore(src); err != nil {
		return err
	}
	if r.w.spills {
		if err := r.probeStorage(src, e); err != nil {
			return err
		}
	}

	tr := newTracer()
	out, err := lp.run(1+max(1, epochs/3), tr, nnz)
	if err != nil {
		return err
	}
	if err := out.release(); err != nil {
		return err
	}
	if r.w.model != "" {
		if err := r.probeCheckpoint(len(out.params), e); err != nil {
			return err
		}
	}
	r.ops += out.ops
	r.failed += out.failed
	r.layer.set("trace_overhead", untracedRate/r.w.rowsPerSec(out)-1)
	spans := tr.done()
	r.fromSpans(spans, out)
	if o.traceOut != nil {
		return writeTrace(o.traceOut, r.w.name, spans)
	}
	return nil
}

// scan visits every stored batch once for its nonzero count and size.
func scan(src ml.BatchSource) (nnz []int64, stored int64) {
	nnz = make([]int64, src.NumBatches())
	for i := range nnz {
		x, _ := src.Batch(i)
		nnz[i] = int64(x.Decode().NNZ())
		stored += int64(x.CompressedSize())
	}
	return nnz, stored
}

// sample spreads at most probeBatches indices over n batches.
func sample(n int) []int {
	var idx []int
	for i := 0; i < n; i += max(1, n/probeBatches) {
		idx = append(idx, i)
	}
	return idx
}

// microseconds converts and sorts durations.
func microseconds(d []time.Duration) []float64 {
	us := make([]float64, len(d))
	for i, v := range d {
		us[i] = float64(v) / 1e3
	}
	sort.Float64s(us)
	return us
}

func usP50(d []time.Duration) float64 { return percentile(microseconds(d), 50) }

// probeCore times core.Compress and core.Deserialize directly, one
// goroutine, on a sample of the workload's own batches.
func (r *result) probeCore(src ml.BatchSource) error {
	var compress, deserialize []time.Duration
	var denseBytes, imageBytes float64
	for _, i := range sample(src.NumBatches()) {
		x, _ := src.Batch(i)
		dense := x.Decode()
		t0 := time.Now()
		b := core.Compress(dense)
		compress = append(compress, time.Since(t0))
		img := b.Serialize()
		t0 = time.Now()
		back, err := core.Deserialize(img)
		deserialize = append(deserialize, time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe: deserialize batch %d: %w", i, err)
		}
		r.check(bytes.Equal(back.Serialize(), img), "batch %d does not survive Deserialize(Serialize())", i)
		denseBytes += float64(dense.Rows() * dense.Cols() * 8)
		imageBytes += float64(len(img))
	}
	n := float64(len(compress))
	r.layer.set("core.compress_us_per_batch", usP50(compress))
	r.layer.set("core.encode_mb_s", denseBytes/n/usP50(compress))
	r.layer.set("core.deserialize_us_per_batch", usP50(deserialize))
	r.layer.set("core.deserialize_mb_s", imageBytes/n/usP50(deserialize))
	return nil
}

// probeStorage times the spill path directly, one goroutine: a sample of
// the workload's batches is added to a fresh all-spilled store, the
// manifest written, and every batch read back from the reopened store.
func (r *result) probeStorage(src ml.BatchSource, e *env) error {
	dir, err := e.mkdir("probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := storage.NewStore(dir, r.w.base.method, 1, storage.WithShards(workers))
	if err != nil {
		return err
	}
	var add, read []time.Duration
	var spilled float64
	for _, i := range sample(src.NumBatches()) {
		x, y := src.Batch(i)
		t0 := time.Now()
		err := st.AddCompressed(x, y)
		add = append(add, time.Since(t0))
		if err != nil {
			st.Close()
			return err
		}
		spilled += float64(x.CompressedSize())
	}
	manifest := filepath.Join(dir, manifestName)
	if err := st.WriteManifest(manifest); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	back, err := storage.OpenStore(manifest)
	if err != nil {
		return err
	}
	defer back.Close()
	for i := 0; i < back.NumBatches(); i++ {
		t0 := time.Now()
		_, _, err := back.TryBatch(i)
		read = append(read, time.Since(t0))
		if err != nil {
			return err
		}
	}
	n := float64(len(add))
	r.layer.set("storage.add_us_per_batch", usP50(add))
	r.layer.set("storage.spill_write_mb_s", spilled/n/usP50(add))
	readUs := microseconds(read)
	r.layer.set("storage.read_us_p50", percentile(readUs, 50))
	r.layer.set("storage.read_us_p99", percentile(readUs, 99))
	r.layer.set("storage.read_mb_s", spilled/n/percentile(readUs, 50))
	return nil
}

// probeCheckpoint times synchronous saves of a state the size of the
// workload's model.
func (r *result) probeCheckpoint(params int, e *env) error {
	dir, err := e.mkdir("ckprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wr, err := checkpoint.NewWriter(dir)
	if err != nil {
		return err
	}
	defer wr.Close()
	var saves []time.Duration
	for i := 0; i < 21; i++ {
		st := &checkpoint.State{Kind: checkpoint.KindAsync, Seed: e.seed, NumBatches: 1, Clock: int64(i),
			Params: make([]float64, params)}
		t0 := time.Now()
		if err := wr.Save(st); err != nil {
			return err
		}
		saves = append(saves, time.Since(t0))
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("probe: no checkpoint written: %v", err)
	}
	info, err := os.Stat(files[0])
	if err != nil {
		return err
	}
	r.layer.set("checkpoint.save_ms_p50", usP50(saves)/1e3)
	r.layer.set("checkpoint.bytes", float64(info.Size()))
	return nil
}

// spanStats is the spans of one name inside the timed window.
type spanStats struct {
	total, work int64
	durs, self  []float64 // microseconds
}

func (s *spanStats) p50() float64 { return median(s.durs) }

// fromSpans computes the per-layer numbers the traced run determines.
// Spans before the end of epoch 0 are warm-up and dropped.
func (r *result) fromSpans(spans []span, out *runOut) {
	epochsRun := len(out.epochTime)
	var cutoff, end int64
	if applies := endsOf(spans, spanApply); len(applies) > 0 {
		cutoff = applies[len(applies)/epochsRun-1]
	} else if closes := endsOf(spans, "storage.close"); len(closes) > 0 {
		cutoff = closes[0]
	}
	var kept []span
	for _, s := range spans {
		if s.Start >= cutoff {
			kept = append(kept, s)
			end = max(end, s.End)
		}
	}
	wall := float64(end - cutoff)
	self := selfTimes(kept)
	by := map[string]*spanStats{}
	for i, s := range kept {
		st := by[s.Name]
		if st == nil {
			st = &spanStats{}
			by[s.Name] = st
		}
		st.total += s.dur()
		st.work += s.Work
		st.durs = append(st.durs, float64(s.dur())/1e3)
		st.self = append(st.self, float64(self[i])/1e3)
	}
	get := func(name string) *spanStats {
		if st := by[name]; st != nil {
			return st
		}
		return &spanStats{}
	}
	perWork := func(name string) float64 {
		if st := get(name); st.work > 0 {
			return float64(st.total) / float64(st.work)
		}
		return 0
	}
	// busy is everything the top-level spans cover; trainerBusy is the
	// part trainers spend outside RPC calls: waiting for a batch, computing
	// the gradient, the uplink half of the codec, and loading a pulled
	// snapshot into their replica (snapshot spans off the live model).
	var busy, trainerBusy int64
	for _, s := range kept {
		if s.Parent != noParent {
			continue
		}
		busy += s.dur()
		switch s.Name {
		case spanBatchWait, spanGrad, spanEncodeGrad, spanDecodeSnap:
			trainerBusy += s.dur()
		case spanSnapshot:
			if s.Worker != 0 {
				trainerBusy += s.dur()
			}
		}
	}
	l := r.layer
	l.set("core.tree_build_us", get(spanTreeBuild).p50())
	l.set("core.mulvec_ns_per_nnz", perWork(spanMulVec))
	l.set("core.vecmul_ns_per_nnz", perWork(spanVecMul))
	l.set("core.mulmat_ns_per_nnz", perWork(spanMulMat))
	l.set("core.matmul_ns_per_nnz", perWork(spanMatMul))
	if busy > 0 {
		kernels := get(spanTreeBuild).total + get(spanMulVec).total + get(spanVecMul).total +
			get(spanMulMat).total + get(spanMatMul).total
		l.set("core.kernel_share", float64(kernels)/float64(busy))
	}
	if r.w.model == "" {
		return
	}
	grad, apply, wait := get(spanGrad), get(spanApply), get(spanBatchWait)
	l.set("ml.grad_us", grad.p50())
	l.set("ml.grad_self_us", median(grad.self))
	l.set("ml.apply_us", apply.p50())
	steps := intervals(endsOf(kept, spanApply))
	l.set("ml.steps", float64(len(steps)))
	l.set("ml.step_p50_us", percentile(steps, 50))
	l.set("ml.step_p99_us", percentile(steps, 99))
	sort.Float64s(wait.durs)
	l.set("storage.batch_wait_us_p50", percentile(wait.durs, 50))
	l.set("storage.batch_wait_us_p99", percentile(wait.durs, 99))
	l.set("engine.idle_share", 1-float64(grad.total+apply.total+wait.total)/(wall*float64(r.w.loopWorkers)))
	l.set("engine.snapshot_us", get(spanSnapshot).p50())
	if r.w.trainers > 0 {
		l.set("dist.encode_grad_us", get(spanEncodeGrad).p50())
		l.set("dist.decode_grad_us", get(spanDecodeGrad).p50())
		l.set("dist.encode_snap_us", get(spanEncodeSnap).p50())
		l.set("dist.decode_snap_us", get(spanDecodeSnap).p50())
		l.set("dist.rpc_wait_share", 1-float64(trainerBusy)/(wall*float64(r.w.trainers)))
	}
}

// endsOf returns the end times of the spans of one name, ascending.
func endsOf(spans []span, name string) []int64 {
	var ends []int64
	for _, s := range spans {
		if s.Name == name {
			ends = append(ends, s.End)
		}
	}
	sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
	return ends
}

// intervals returns the gaps between consecutive times, in microseconds,
// ascending.
func intervals(times []int64) []float64 {
	var gaps []float64
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, float64(times[i]-times[i-1])/1e3)
	}
	sort.Float64s(gaps)
	return gaps
}
