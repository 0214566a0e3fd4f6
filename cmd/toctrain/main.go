// Command toctrain runs end-to-end MGD training of one model on one
// dataset under one encoding and an optional memory budget — the paper's
// Table 6/7 cell, as a single reproducible run.
//
// Usage:
//
//	toctrain -dataset imagenet -rows 4000 -model lr -method TOC
//	toctrain -dataset mnist -model nn -method CSR -budget 500000
//	toctrain -dataset mnist -model lr -budget 500000 -workers 8
//	toctrain -dataset mnist -model lr -budget 500000 -workers 8 \
//	    -spill-shards 4 -seek 2ms
//	toctrain -dataset mnist -model lr -workers 8 -group 1 -staleness 8 \
//	    -elastic 200:+4,500:-2
//
// Under -budget a batch stays resident iff it fits the budget left when
// it arrives; every epoch visits the batches in ingest order. The spill
// layer is configurable: -spill-shards/-spill-dirs spread the spill
// across files/directories (prefetch reads distinct shards
// concurrently), -bw is the simulated read bandwidth — an aggregate cap
// per directory that concurrent readers share, so more bandwidth means
// more -spill-dirs — and -seek a per-read latency that serializes within
// a shard and overlaps across shards, and -prefetch-bytes bounds the
// prefetch window by compressed bytes.
//
// Every local run goes through the engine: ingest compression is sharded
// across the pool, spilled batches are read by the prefetcher ahead of
// the loop, and -group and -staleness alone select the training regime.
// -workers 1 runs the serial schedule, one batch gradient per update.
// With -workers N (N != 1) each update merges -group batch gradients in
// batch order, so the trajectory depends on -group, never on -workers;
// -group 1 reproduces the serial one exactly. Workers left over after the
// in-flight gradients shard the matrix kernels A·M and M·A inside each
// gradient (bitwise identical to the sequential ones; A·v and v·A never
// shard), and each gradient shares one decode-tree build across its
// kernels — the run prints the build counter.
//
// -staleness N (default 0) admits a gradient whose parameter version
// missed at most N updates, so with -group 1 one slow batch never idles
// the other workers; -staleness 0 freezes the parameters for the whole
// step and -1 free-runs Hogwild-style. The pool is elastic (-elastic
// "200:+4,500:-2" adds four workers after 200 updates and removes two
// after 500; such runs use delayed gradients, so the schedule never
// changes the trajectory) and fault tolerant: crashed workers are
// replaced within -restart-budget replacements per -restart-window, and
// spilled reads retry transient failures (-read-retries, -retry-base).
// The run prints the update, refused-gradient (always 0), staleness,
// membership, crash and retry counters.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"toc"
)

var (
	dataset    = flag.String("dataset", "census", "dataset name")
	rows       = flag.Int("rows", 4000, "dataset rows")
	modelName  = flag.String("model", "lr", "model: linreg, lr, svm, nn")
	method     = flag.String("method", "TOC", "mini-batch encoding method")
	batchSize  = flag.Int("batch", 250, "mini-batch rows")
	epochs     = flag.Int("epochs", 5, "training epochs")
	lr         = flag.Float64("lr", 0.3, "learning rate")
	budget     = flag.Int64("budget", 0, "memory budget bytes (0 = unlimited)")
	bandwidth  = flag.Int64("bw", 150<<20, "simulated disk read bandwidth bytes/s, an aggregate cap per spill directory (0 = unthrottled)")
	seed       = flag.Int64("seed", 1, "random seed")
	hidden     = flag.Float64("hidden", 0.25, "NN hidden layer scale (1.0 = paper's 200/50)")
	workers    = flag.Int("workers", 1, "worker pool size; 1 runs the serial schedule (0 = GOMAXPROCS)")
	prefetch   = flag.Int("prefetch", 16, "spill prefetch window depth in batches")
	prefBytes  = flag.Int64("prefetch-bytes", 0, "bound the prefetch window by compressed bytes instead of only batch count (0 = off)")
	group      = flag.Int("group", 8, "with -workers != 1: batch gradients merged per update; changes the update schedule vs serial (1 = serial-equivalent trajectory at -staleness 0, with all workers sharding each gradient's matrix kernels: -model nn only)")
	staleness  = flag.Int("staleness", 0, "max parameter updates a gradient's version may trail its step (0 = parameters frozen per step, -1 = unbounded Hogwild-style free-running); with -dist, the server's admission bound")
	elastic    = flag.String("elastic", "", "local runs: worker join/leave schedule as step:±delta pairs, e.g. 200:+4,500:-2")
	restartBud = flag.Int("restart-budget", 0, "local runs: crashed-worker replacements allowed per -restart-window (0 = default, negative = never replace)")
	restartWin = flag.Duration("restart-window", 0, "local runs: sliding window the restart budget counts replacements in (0 = default)")
	readRetry  = flag.Int("read-retries", 0, "spilled-read attempts before a read fails permanently (0 = store default)")
	retryBase  = flag.Duration("retry-base", 0, "initial spilled-read retry backoff, doubled per attempt with seeded jitter (0 = store default)")
	spillShard = flag.Int("spill-shards", 0, "number of spill files, read concurrently by the prefetcher (0 = one, or one per -spill-dirs entry)")
	spillDirs  = flag.String("spill-dirs", "", "comma-separated directories for spill shards (models distinct devices)")
	seek       = flag.Duration("seek", 0, "simulated per-read access latency (e.g. 2ms; serialized per shard, overlapped across shards)")
	ckptDir    = flag.String("checkpoint-dir", "", "write crash-safe training checkpoints (and the spill-store manifest) into this directory")
	ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint cadence in parameter updates (0 = once per epoch)")
	resumeRun  = flag.Bool("resume", false, "resume from the newest checkpoint in -checkpoint-dir, recovering the spill store from its manifest instead of re-ingesting")
	faults     = flag.String("faultpoint", "", "arm fault-injection points, e.g. checkpoint.rename=crash:2 (testing only)")
	distN      = flag.Int("dist", 0, "run distributed: N trainer processes exchanging compressed gradients with a parameter server over loopback TCP (uses -staleness as the admission bound)")
	codecSpec  = flag.String("codec", "dense", "dist mode: gradient codec — dense, topk:<ratio> or dsq:<bits>")
	linkMbps   = flag.Float64("link-mbps", 0, "dist mode: simulated symmetric link bandwidth in Mbit/s (0 = unmetered)")
)

// paramsCRC fingerprints a model's flat parameter vector so two runs can
// be compared for bitwise identity from their output alone.
func paramsCRC(m toc.Model) uint32 {
	params := make([]float64, m.NumParams())
	m.Params(params)
	buf := make([]byte, 8*len(params))
	for i, p := range params {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(p))
	}
	return crc32.ChecksumIEEE(buf)
}

// boundName prints -staleness, whose negative values all mean no bound.
func boundName() string {
	if *staleness < 0 {
		return "unbounded"
	}
	return fmt.Sprint(*staleness)
}

// haltOnSignal makes SIGINT/SIGTERM halt the run after the in-flight
// update: a final checkpoint is written synchronously, so a later -resume
// continues the exact trajectory.
func haltOnSignal(halt func()) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Print("signal received: halting after the in-flight update")
		halt()
	}()
}

// finishHalted flushes the final checkpoint of a halted run.
func finishHalted(ckpt *toc.CheckpointWriter) {
	if err := ckpt.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("halted: final checkpoint in %s; rerun with -resume to continue\n", *ckptDir)
}

// runDist trains with the parameter-server stack: one DistServer owns
// the model and N trainers exchange codec-compressed gradients with it
// over loopback TCP — the full net/rpc wire path, in one process.
func runDist(d *toc.Dataset, ckpt *toc.CheckpointWriter, resume *toc.CheckpointState) {
	codec, err := toc.ParseGradCodec(*codecSpec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	model, err := toc.NewModel(*modelName, d.X.Cols(), d.Classes, *hidden, *seed+7)
	if err != nil {
		log.Fatal(err)
	}
	src := toc.NewMemorySource(d, *batchSize, *method)
	link := toc.NewDistLinkMbps(*linkMbps)
	srv, err := toc.NewDistServer(toc.DistServerConfig{
		Epochs: *epochs, NumBatches: src.NumBatches(), LR: *lr,
		Seed: *seed, Staleness: *staleness, Codec: codec, Link: link,
		Checkpoint: ckpt, CheckpointEvery: *ckptEvery, Resume: resume,
	}, model)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	if ckpt != nil {
		haltOnSignal(srv.Halt)
	}

	linkDesc := "unmetered link"
	if link != nil {
		linkDesc = fmt.Sprintf("%.0f Mbit/s link", *linkMbps)
	}
	fmt.Printf("dist: %d trainers, codec %s, staleness %s, %s, %d batches/epoch\n",
		*distN, codec.Name(), boundName(), linkDesc, src.NumBatches())

	// Trainers are goroutines dialing real TCP connections; a trainer
	// model is a fresh clone (the Join handshake overwrites its
	// parameters with the server image anyway).
	errs := make([]error, *distN)
	trainers := make([]*toc.DistTrainer, *distN)
	var wg sync.WaitGroup
	for i := range trainers {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		trainers[i] = toc.NewDistTrainer(conn, model.Clone(), src,
			toc.DistTrainerConfig{Codec: codec.Clone()})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = trainers[i].Run()
		}(i)
	}
	res, werr := srv.Wait()
	halted := errors.Is(werr, toc.ErrHalted)
	if werr != nil && !halted {
		log.Fatal(werr)
	}
	ln.Close()
	wg.Wait()

	fmt.Println("epoch  loss      elapsed_ms")
	for e, loss := range res.EpochLoss {
		fmt.Printf("%5d  %.6f  %10.1f\n", e+1, loss, res.EpochTime[e].Seconds()*1e3)
	}
	crashed := 0
	for i, e := range errs {
		if e != nil {
			crashed++
			fmt.Printf("trainer %d crashed: %v\n", i, e)
		}
	}
	st := srv.Stats()
	fmt.Printf("dist: %d updates, %d rejected, %d duplicates, staleness max %d mean %.2f\n",
		st.Updates, st.Rejected, st.Duplicates, st.MaxStaleness, st.MeanStaleness())
	fmt.Printf("dist crash recovery: %d trainers crashed, %d disconnects, %d positions reassigned, run completed\n",
		crashed, st.Disconnects, st.Reassigned)
	fmt.Printf("dist wire: %d KB up, %d KB down, ratio %.4f of dense\n",
		st.UpBytes/1024, st.DownBytes/1024, st.WireRatio())
	fmt.Printf("total %.1fms, final error %.3f\n",
		res.Total.Seconds()*1e3, toc.EvaluateError(model, src))
	fmt.Printf("final params crc32 %08x\n", paramsCRC(model))
	if halted {
		finishHalted(ckpt)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("toctrain: ")
	flag.Parse()
	if *faults != "" {
		if err := toc.ArmFaultpoints(*faults); err != nil {
			log.Fatal(err)
		}
	}
	for _, rule := range []struct {
		refused bool
		msg     string
	}{
		{*resumeRun && *ckptDir == "", "-resume needs -checkpoint-dir"},
		{*distN > 0 && *elastic != "", "-elastic needs a local run: the parameter server has no worker pool to resize"},
		{*distN > 0 && (*restartBud != 0 || *restartWin != 0), "-restart-budget and -restart-window need a local run: the parameter server replaces no workers"},
		{*distN == 0 && (*codecSpec != "dense" || *linkMbps != 0), "-codec and -link-mbps need -dist"},
		{*bandwidth < 0 || *seek < 0 || !(*linkMbps >= 0), "-bw, -seek and -link-mbps must not be negative (0 = off)"},
	} {
		if rule.refused {
			log.Fatal(rule.msg)
		}
	}
	elasticEvents, err := toc.ParseElasticSchedule(*elastic)
	if err != nil {
		log.Fatal(err)
	}

	d, err := toc.GenerateDataset(*dataset, *rows, *seed)
	if err != nil {
		log.Fatal(err)
	}
	d.ShuffleOnce(*seed + 1)

	if *budget <= 0 {
		*budget = 1 << 50
	}
	opts := []toc.StoreOption{
		toc.WithShards(*spillShard),
		toc.WithReadBandwidth(*bandwidth),
		toc.WithAccessLatency(*seek),
	}
	if *spillDirs != "" {
		opts = append(opts, toc.WithShardDirs(strings.Split(*spillDirs, ",")...))
	}
	if *readRetry != 0 || *retryBase != 0 {
		rp := toc.DefaultRetryPolicy()
		if *readRetry != 0 {
			rp.Attempts = *readRetry
		}
		if *retryBase != 0 {
			rp.Base = *retryBase
			if rp.Max < rp.Base {
				rp.Max = rp.Base
			}
		}
		rp.Seed = *seed
		opts = append(opts, toc.WithReadRetry(rp))
	}
	// Checkpointing: snapshots and the spill-store manifest live in
	// -checkpoint-dir. A resume recovers the store from the manifest
	// (shard files reopened and CRC-verified, no re-ingest); a crash
	// before the manifest rename just re-ingests — either way the
	// trajectory is unchanged.
	var ckpt *toc.CheckpointWriter
	var resumeState *toc.CheckpointState
	manifest := ""
	if *ckptDir != "" {
		manifest = filepath.Join(*ckptDir, "store.manifest")
		var err error
		if ckpt, err = toc.NewCheckpointWriter(*ckptDir); err != nil {
			log.Fatal(err)
		}
		defer ckpt.Close()
		if *resumeRun {
			st, err := toc.LatestCheckpoint(*ckptDir)
			switch {
			case err == nil:
				resumeState = st
				fmt.Printf("resuming from checkpoint step %d (epoch %d)\n", st.Step(), st.Epoch)
			case errors.Is(err, os.ErrNotExist):
				fmt.Println("no checkpoint yet; starting fresh")
			default:
				log.Fatal(err) // corrupt newest checkpoint: loud, no fallback
			}
		}
	}

	if *distN > 0 {
		runDist(d, ckpt, resumeState)
		return
	}

	var store *toc.Store
	recovered := false
	if *resumeRun && manifest != "" {
		if _, statErr := os.Stat(manifest); statErr == nil {
			s, err := toc.OpenStore(manifest, opts...)
			if err != nil {
				log.Fatal(err) // truncated/corrupt shard or manifest: loud
			}
			store = s
			recovered = true
			fmt.Printf("recovered spill store from %s\n", manifest)
		}
	}
	if store == nil {
		s, err := toc.NewStore("", *method, *budget, opts...)
		if err != nil {
			log.Fatal(err)
		}
		store = s
	}
	defer store.Close()

	g := 1 // the serial schedule
	if *workers != 1 {
		g = *group
	}
	eng := toc.NewEngine(toc.EngineConfig{
		Workers: *workers, GroupSize: g, Staleness: *staleness, Seed: *seed,
		Deterministic: ckpt != nil || len(elasticEvents) > 0,
		RestartBudget: *restartBud, RestartWindow: *restartWin,
		Checkpoint: ckpt, CheckpointEvery: *ckptEvery,
	})
	if len(elasticEvents) > 0 {
		eng.SetOnStep(eng.ElasticHook(elasticEvents, nil))
	}
	if !recovered {
		if err := eng.FillStore(store, d, *batchSize); err != nil {
			log.Fatal(err)
		}
		if manifest != "" {
			if err := store.WriteManifest(manifest); err != nil {
				log.Fatal(err)
			}
		}
	}
	if ckpt != nil {
		haltOnSignal(eng.Halt)
	}
	st := store.Stats()
	fmt.Printf("%s %dx%d as %s: %d batches, %d resident (%d KB), %d spilled (%d KB)\n",
		*dataset, d.X.Rows(), d.X.Cols(), *method,
		store.NumBatches(), st.ResidentBatches, st.ResidentBytes/1024,
		st.SpilledBatches, st.SpilledBytes/1024)
	if store.Spilled() {
		fmt.Printf("spill: %d shards, seek %v\n", store.Shards(), *seek)
	}

	model, err := toc.NewModel(*modelName, d.X.Cols(), d.Classes, *hidden, *seed+7)
	if err != nil {
		log.Fatal(err)
	}
	pf := eng.NewPrefetcher(store, *prefetch, *prefBytes)
	defer pf.Close()
	fmt.Printf("engine: %d workers, group %d, staleness %s, kernel workers %d, prefetch depth %d (byte budget %d)\n",
		eng.Workers(), eng.GroupSize(), boundName(), eng.KernelWorkers(store.NumBatches()), *prefetch, *prefBytes)
	fmt.Println("epoch  loss      elapsed_ms")
	cb := func(e int, elapsed time.Duration, loss float64) {
		fmt.Printf("%5d  %.6f  %10.1f\n", e+1, loss, elapsed.Seconds()*1e3)
	}
	treeBuilds := toc.DecodeTreeBuilds()
	res, err := eng.TrainFrom(model, pf, *epochs, *lr, cb, resumeState)
	halted := errors.Is(err, toc.ErrHalted)
	if err != nil && !halted {
		log.Fatal(err)
	}
	es := eng.Stats()
	fmt.Printf("loop: %d updates, %d rejected, staleness max %d mean %.2f\n",
		es.Updates, es.Rejected, es.MaxStaleness, es.MeanStaleness())
	fmt.Printf("elastic: %d joined, %d departed, final pool %d\n",
		es.Joined, es.Departed, int64(eng.Workers())+es.Joined-es.Departed-es.Degraded)
	fmt.Printf("crash recovery: %d worker panics, %d restarts, %d degraded\n",
		es.WorkerPanics, es.Restarts, es.Degraded)
	treeBuilds = toc.DecodeTreeBuilds() - treeBuilds
	st = store.Stats()
	fmt.Printf("total %.1fms (IO %.1fms, %d spilled reads), final error %.3f\n",
		res.Total.Seconds()*1e3, st.ReadTime.Seconds()*1e3, st.Reads,
		toc.EvaluateError(model, store))
	if st.Retries > 0 || st.FailedReads > 0 {
		fmt.Printf("storage retries: %d absorbed, %d reads failed permanently\n",
			st.Retries, st.FailedReads)
	}
	fmt.Printf("decode-tree builds during training: %d (plan reuse: one per batch-gradient, not one per op)\n",
		treeBuilds)
	ps := pf.Stats()
	fmt.Printf("prefetch: %d hits, %d misses, %d issued, stall %.1fms\n",
		ps.Hits, ps.Misses, ps.Prefetched, ps.Stall.Seconds()*1e3)
	fmt.Printf("final params crc32 %08x\n", paramsCRC(model))
	if halted {
		finishHalted(ckpt)
	}
}
