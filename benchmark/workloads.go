package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/core"
	"toc/internal/data"
	"toc/internal/dist"
	"toc/internal/engine"
	"toc/internal/formats"
	"toc/internal/ml"
	"toc/internal/storage"
)

const (
	batchSize = 250
	// workers is fixed, not read from the machine: the benchmark was sized
	// on 2 cores, and a count that follows the host would make runs on
	// different hosts different workloads.
	workers = 2
	// repeats is how many times a workload's timed section runs, each with
	// a fresh model.
	repeats = 3
	// sizedSeconds is the -seconds value the frozen epoch counts below
	// were sized for: three repeats of 1+epochs take about that long on
	// the sizing machine. Another -seconds scales the epoch count, never
	// the rows.
	sizedSeconds = 10
)

// variant names what a loop is built with: the mini-batch encoding and,
// for the distributed loop, the gradient codec.
type variant struct{ method, codec string }

// workload is one row of the benchmark: generated data, a model and one
// of the repo's training (or ingest) loops.
type workload struct {
	name string
	// why is the one-line reason the workload exists (README.md has the
	// long form; BENCHMARK.json repeats this line).
	why     string
	dataset string
	rows    int
	model   string // "" for ingest
	lr      float64
	// epochs is the timed epochs (ingest passes) per repeat at
	// sizedSeconds; every repeat runs one more as warm-up.
	epochs int
	// loopWorkers is how many goroutines compute gradients at once.
	loopWorkers int
	base        variant
	// ref is the exact counterpart the output check trains against with
	// the same loop, data and seeds; refTol is the relative final-loss
	// difference allowed. A zero ref means no reference run.
	ref    variant
	refTol float64
	// deterministic loops must end all repeats on bit-identical loss.
	deterministic bool
	// spills marks the workloads whose batches live in spill files.
	spills bool
	// staleness and trainers size the async and distributed loops.
	staleness, trainers int
	open                func(w *workload, e *env, d *data.Dataset, v variant) (loop, error)
}

var (
	toc = variant{method: "TOC"}
	den = variant{method: "DEN"}
)

var workloads = []*workload{
	{
		name:    "ram_lr_serial",
		why:     "imagenet 200000x180, lr, serial ml.Train in RAM, 3x(1+24) epochs: matrix-vector kernels and the per-batch decode-tree build do almost all the work; the plain single-worker baseline",
		dataset: "imagenet", rows: 200000, model: "lr", lr: 0.2, epochs: 24, loopWorkers: 1,
		base: toc, ref: den, refTol: 1e-4, deterministic: true,
		open: openResident(trainSerial),
	},
	{
		name:    "ram_nn_sync",
		why:     "mnist 20000x196, nn 200/50, 2-worker sync engine in RAM, 3x(1+2) epochs: matrix-matrix kernels, dense layers, barrier/merge/apply; a tree-build gain must not move it, a MulMat one must",
		dataset: "mnist", rows: 20000, model: "nn", lr: 0.1, epochs: 2, loopWorkers: workers,
		base: toc, ref: den, refTol: 1e-4, deterministic: true,
		open: openResident(trainSync),
	},
	{
		name:    "spill_lr_async",
		why:     "imagenet 200000x180, lr, async staleness 4 over a fully spilled 2-shard store, 3x(1+24) epochs: spilled read + CRC + Deserialize, prefetcher, updater, checkpoints; kernels are the minority",
		dataset: "imagenet", rows: 200000, model: "lr", lr: 0.2, epochs: 24, loopWorkers: workers,
		base: toc, ref: den, refTol: 1e-4, deterministic: true, spills: true, staleness: 4,
		open: openSpilled,
	},
	{
		name:    "dist_nn_topk",
		why:     "mnist 20000x196, nn, server + 2 trainers over net.Pipe, topk:0.01, unmetered link, 3x(1+2) epochs: GradCodec, gob/RPC, reorder buffer; the codec's real CPU cost, not token-bucket sleeps",
		dataset: "mnist", rows: 20000, model: "nn", lr: 0.1, epochs: 2, loopWorkers: workers,
		base: variant{method: "TOC", codec: "topk:0.01"}, ref: variant{method: "TOC", codec: "dense"}, refTol: 0.02,
		staleness: 4, trainers: 2,
		open: openResident(trainDist),
	},
	{
		name:    "ingest_toc",
		why:     "imagenet 100000x180, 3x(1+3) passes of NewStore+FillStore+WriteManifest+Close: core.Compress, span CRC + spill write, manifest; catches an encoding that speeds reads by slowing ingest or growing bytes",
		dataset: "imagenet", rows: 100000, epochs: 3, loopWorkers: workers,
		base: toc, spills: true,
		open: openIngest,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaledEpochs is the timed epoch count for a -seconds budget.
func (w *workload) scaledEpochs(seconds float64) int {
	return max(2, int(float64(w.epochs)*seconds/sizedSeconds+0.5))
}

// env is what one workload run may touch: the seed and a fresh temp dir.
type env struct {
	seed int64
	dir  string
}

func (e *env) mkdir(prefix string) (string, error) { return os.MkdirTemp(e.dir, prefix) }

// generate builds the workload's dataset from the seed alone.
func (w *workload) generate(seed int64) (*data.Dataset, error) {
	d, err := data.Generate(w.dataset, w.rows, seed)
	if err != nil {
		return nil, err
	}
	d.ShuffleOnce(seed + 1)
	return d, nil
}

// loop is a workload's ingested source plus the loop that trains on it.
type loop interface {
	// run trains a fresh model for epochs epochs (ingests that many
	// passes). A nil tracer runs the program undecorated.
	run(epochs int, tr *tracer, nnz []int64) (*runOut, error)
	// source serves the stored TOC batches, for scans and probes.
	source() (ml.BatchSource, error)
	storedBytes() (int64, error)
	close() error
}

// runOut is what one run of a loop leaves behind.
type runOut struct {
	epochTime  []time.Duration
	epochLoss  []float64 // nil for ingest
	ops        int64     // parameter updates applied, or batches ingested
	failed     int64
	params     []float64
	treeBuilds uint64
	// counters are the loop's own statistics, keyed by per-layer metric.
	counters map[string]float64
	// hold keeps the model, prefetcher and engine reachable until the
	// live heap has been measured; release then frees what needs closing.
	hold    []any
	release func() error
}

func outOf(res *ml.TrainResult, ops int64) *runOut {
	return &runOut{epochTime: res.EpochTime, epochLoss: res.EpochLoss, ops: ops,
		counters: map[string]float64{}, release: func() error { return nil }}
}

// trainLoop is the four training workloads: a source and a train function.
type trainLoop struct {
	w             *workload
	e             *env
	v             variant
	cols, classes int
	src           ml.BatchSource // *ml.MemorySource or *storage.Store
	dir           string         // the store's directory; "" when resident
	fillRate      float64        // rows/s of the spilled loop's FillStore
	train         trainFunc
}

type trainFunc func(l *trainLoop, m ml.SnapshotModel, epochs int, tr *tracer, nnz []int64) (*runOut, error)

func (l *trainLoop) run(epochs int, tr *tracer, nnz []int64) (*runOut, error) {
	m, err := ml.NewModel(l.w.model, l.cols, l.classes, 1.0, l.e.seed)
	if err != nil {
		return nil, err
	}
	sm, ok := m.(ml.SnapshotModel)
	if !ok {
		return nil, fmt.Errorf("model %T is not an ml.SnapshotModel", m)
	}
	builds := core.TreeBuilds()
	out, err := l.train(l, traceModel(sm, tr), epochs, tr, nnz)
	if err != nil {
		return nil, err
	}
	out.treeBuilds = core.TreeBuilds() - builds
	out.params = make([]float64, sm.NumParams())
	sm.Params(out.params)
	out.hold = append(out.hold, sm)
	return out, nil
}

func (l *trainLoop) source() (ml.BatchSource, error) { return l.src, nil }

func (l *trainLoop) storedBytes() (int64, error) {
	if ms, ok := l.src.(*ml.MemorySource); ok {
		return int64(ms.CompressedBytes()), nil
	}
	return dirBytes(l.dir)
}

func (l *trainLoop) close() error {
	if st, ok := l.src.(*storage.Store); ok {
		return st.Close()
	}
	return nil
}

func openResident(train trainFunc) func(*workload, *env, *data.Dataset, variant) (loop, error) {
	return func(w *workload, e *env, d *data.Dataset, v variant) (loop, error) {
		enc, ok := formats.Get(v.method)
		if !ok {
			return nil, fmt.Errorf("unknown method %q", v.method)
		}
		return &trainLoop{w: w, e: e, v: v, cols: d.X.Cols(), classes: d.Classes,
			src: ml.NewMemorySource(d, batchSize, enc), train: train}, nil
	}
}

func trainSerial(l *trainLoop, m ml.SnapshotModel, epochs int, tr *tracer, nnz []int64) (*runOut, error) {
	res := ml.Train(m, traceSource(l.src, tr, nnz), epochs, l.w.lr, nil)
	return outOf(res, int64(epochs*l.src.NumBatches())), nil
}

func trainSync(l *trainLoop, m ml.SnapshotModel, epochs int, tr *tracer, nnz []int64) (*runOut, error) {
	eng := engine.New(engine.Config{Workers: workers, GroupSize: workers, Seed: l.e.seed})
	res, err := eng.TrainFrom(m, traceSource(l.src, tr, nnz), epochs, l.w.lr, nil, nil)
	if err != nil {
		return nil, err
	}
	updates := (l.src.NumBatches() + workers - 1) / workers
	return outOf(res, int64(epochs*updates)), nil
}

const manifestName = "store.manifest"

// openSpilled ingests through the engine into a store whose budget of one
// byte spills every batch, on two shards.
func openSpilled(w *workload, e *env, d *data.Dataset, v variant) (loop, error) {
	dir, err := e.mkdir("store-")
	if err != nil {
		return nil, err
	}
	st, err := storage.NewStore(dir, v.method, 1, storage.WithShards(workers))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := engine.NewAsync(engine.AsyncConfig{Workers: workers, Seed: e.seed}).FillStore(st, d, batchSize); err != nil {
		st.Close()
		return nil, err
	}
	fill := time.Since(t0)
	if err := st.WriteManifest(filepath.Join(dir, manifestName)); err != nil {
		st.Close()
		return nil, err
	}
	return &trainLoop{w: w, e: e, v: v, cols: d.X.Cols(), classes: d.Classes, src: st, dir: dir,
		fillRate: float64(w.rows) / fill.Seconds(), train: trainAsync}, nil
}

func trainAsync(l *trainLoop, m ml.SnapshotModel, epochs int, tr *tracer, nnz []int64) (*runOut, error) {
	st := l.src.(*storage.Store)
	ckDir, err := l.e.mkdir("ckpt-")
	if err != nil {
		return nil, err
	}
	wr, err := checkpoint.NewWriter(ckDir)
	if err != nil {
		return nil, err
	}
	// Keep every file, so the count below is the checkpoints written.
	wr.SetKeep(1 << 20)
	a := engine.NewAsync(engine.AsyncConfig{Workers: workers, Staleness: l.w.staleness, Seed: l.e.seed,
		Deterministic: true, Checkpoint: wr})
	pf := a.NewPrefetcher(st, 0, 0)
	before := st.Stats()
	t0 := time.Now()
	res, err := a.Train(m, traceSource(pf, tr, nnz), epochs, l.w.lr, nil)
	if cerr := wr.Close(); err == nil {
		err = cerr
	}
	wall := time.Since(t0)
	if err != nil {
		pf.Close()
		return nil, err
	}
	after, ps, as := st.Stats(), pf.Stats(), a.Stats()
	visits := float64(epochs * st.NumBatches())
	out := outOf(res, as.Updates)
	out.failed = after.FailedReads - before.FailedReads + ps.Errors
	c := out.counters
	c["storage.read_busy_share"] = (after.ReadTime - before.ReadTime).Seconds() / (wall.Seconds() * workers)
	c["storage.reads_per_visit"] = float64(after.Reads-before.Reads) / visits
	if ps.Prefetched > 0 {
		c["storage.wasted_read_ratio"] = float64(ps.Prefetched-ps.Hits) / float64(ps.Prefetched)
	}
	if ps.Hits+ps.Misses > 0 {
		c["storage.prefetch_hit_ratio"] = float64(ps.Hits) / float64(ps.Hits+ps.Misses)
	}
	c["storage.retries"] = float64(after.Retries - before.Retries)
	c["storage.failed_reads"] = float64(out.failed)
	c["storage.prefetch_stall_ms_per_epoch"] = ps.Stall.Seconds() * 1e3 / float64(epochs)
	c["engine.async_mean_staleness"] = as.MeanStaleness()
	c["engine.async_rejected"] = float64(as.Rejected)
	c["engine.fill_rows_per_s"] = l.fillRate
	files, err := filepath.Glob(filepath.Join(ckDir, "*"))
	if err != nil {
		return nil, err
	}
	c["checkpoint.files"] = float64(len(files))
	out.hold = append(out.hold, pf, a)
	out.release = func() error {
		return errors.Join(pf.Close(), os.RemoveAll(ckDir))
	}
	return out, nil
}

func trainDist(l *trainLoop, m ml.SnapshotModel, epochs int, tr *tracer, nnz []int64) (*runOut, error) {
	src := traceSource(l.src, tr, nnz)
	codec, err := dist.ParseCodec(l.v.codec, l.e.seed)
	if err != nil {
		return nil, err
	}
	codec = traceCodec(codec, tr)
	srv, err := dist.NewServer(dist.ServerConfig{
		Epochs: epochs, NumBatches: src.NumBatches(), LR: l.w.lr,
		Seed: l.e.seed, Staleness: l.w.staleness, Codec: codec,
	}, m)
	if err != nil {
		return nil, err
	}
	var sessions, trainers sync.WaitGroup
	terrs := make([]error, l.w.trainers)
	for i := range terrs {
		server, client := net.Pipe()
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			srv.ServeConn(server)
		}()
		var conn io.ReadWriteCloser = client
		t := dist.NewTrainer(traceConn(conn, tr, i), m.Clone(), src, dist.TrainerConfig{Codec: codec.Clone()})
		trainers.Add(1)
		go func() {
			defer trainers.Done()
			terrs[i] = t.Run()
		}()
	}
	res, err := srv.Wait()
	trainers.Wait()
	sessions.Wait()
	if err = errors.Join(append(terrs, err)...); err != nil {
		return nil, err
	}
	st := srv.Stats()
	out := outOf(res, st.Updates)
	if st.Updates > 0 {
		u := float64(st.Updates)
		c := out.counters
		c["dist.up_bytes_per_update"] = float64(st.UpBytes) / u
		c["dist.down_bytes_per_update"] = float64(st.DownBytes) / u
		c["dist.wire_ratio"] = st.WireRatio()
		c["dist.pulls_per_update"] = float64(st.Pulls) / u
		c["dist.rejected"] = float64(st.Rejected)
		c["dist.mean_staleness"] = st.MeanStaleness()
	}
	return out, nil
}

// ingestLoop is the ingest workload: its input is the dataset itself, and
// one pass builds, fills, persists and closes a spilled store.
type ingestLoop struct {
	w    *workload
	e    *env
	d    *data.Dataset
	last string         // directory of the newest pass, kept for the checks
	back *storage.Store // the newest pass reopened, once asked for
}

func openIngest(w *workload, e *env, d *data.Dataset, _ variant) (loop, error) {
	return &ingestLoop{w: w, e: e, d: d}, nil
}

func (l *ingestLoop) run(passes int, tr *tracer, _ []int64) (*runOut, error) {
	out := outOf(&ml.TrainResult{}, 0)
	n := l.d.NumBatches(batchSize)
	eng := engine.New(engine.Config{Workers: workers, Seed: l.e.seed})
	var fills, manifests []float64
	for p := 0; p < passes; p++ {
		if err := l.dropLast(); err != nil {
			return nil, err
		}
		dir, err := l.e.mkdir("ingest-")
		if err != nil {
			return nil, err
		}
		l.last = dir
		t0 := time.Now()
		st, err := storage.NewStore(dir, l.w.base.method, 1, storage.WithShards(workers))
		if err != nil {
			return nil, err
		}
		fill, err := timedCall(tr, "engine.fill_store", int64(p), func() error { return eng.FillStore(st, l.d, batchSize) })
		if err != nil {
			st.Close()
			return nil, err
		}
		manifest, err := timedCall(tr, "storage.write_manifest", int64(p), func() error {
			return st.WriteManifest(filepath.Join(dir, manifestName))
		})
		if err != nil {
			st.Close()
			return nil, err
		}
		if _, err := timedCall(tr, "storage.close", int64(p), st.Close); err != nil {
			return nil, err
		}
		out.epochTime = append(out.epochTime, time.Since(t0))
		out.ops += int64(n)
		if p > 0 { // pass 0 is warm-up, as epoch 0 is everywhere
			fills = append(fills, float64(l.w.rows)/fill.Seconds())
			manifests = append(manifests, manifest.Seconds()*1e3)
		}
	}
	out.counters["engine.fill_rows_per_s"] = median(fills)
	out.counters["storage.manifest_ms"] = median(manifests)
	return out, nil
}

// timedCall times fn, and records it as a top-level span when traced.
func timedCall(tr *tracer, name string, step int64, fn func() error) (time.Duration, error) {
	var sp span
	if tr != nil {
		sp = tr.begin(name, step, 0)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if tr != nil {
		tr.end(sp)
	}
	return d, err
}

func (l *ingestLoop) dropLast() error {
	if l.back != nil {
		if err := l.back.Close(); err != nil {
			return err
		}
		l.back = nil
	}
	if l.last == "" {
		return nil
	}
	return os.RemoveAll(l.last)
}

// source reopens the newest pass; OpenStore re-reads every span and
// verifies its CRC.
func (l *ingestLoop) source() (ml.BatchSource, error) {
	if l.back == nil {
		if l.last == "" {
			return nil, errors.New("ingest: no pass has run")
		}
		st, err := storage.OpenStore(filepath.Join(l.last, manifestName))
		if err != nil {
			return nil, err
		}
		l.back = st
	}
	return l.back, nil
}

func (l *ingestLoop) storedBytes() (int64, error) { return dirBytes(l.last) }

func (l *ingestLoop) close() error { return l.dropLast() }

// dirBytes totals the regular files under dir: shard files and manifest.
// The manifest records each shard file's path, and the temp names in it
// vary in length from run to run; their bytes are taken off again so that
// the total is an exact count for a seed.
func dirBytes(dir string) (int64, error) {
	if dir == "" {
		return 0, errors.New("nothing stored yet")
	}
	var total int64
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || !de.Type().IsRegular() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if de.Name() != manifestName {
			total -= int64(len(filepath.Dir(path)) + len(de.Name()))
		}
		return nil
	})
	return total, err
}
