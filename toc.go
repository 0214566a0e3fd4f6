// Package toc is the public facade of the tuple-oriented compression
// library, a Go implementation of "Tuple-oriented Compression for
// Large-scale Mini-batch Stochastic Gradient Descent" (Li et al., SIGMOD
// 2019).
//
// TOC losslessly compresses mini-batches (small dense matrices) through
// three layers — sparse encoding, LZW-style prefix-tree logical encoding,
// and bit-packed/value-indexed physical encoding — while preserving tuple
// boundaries, so the matrix operations mini-batch gradient descent needs
// (A·v, v·A, A·M, M·A, sparse-safe element-wise ops) execute directly on
// the compressed representation with no decompression step.
//
// Quick start:
//
//	m := toc.NewDenseFromRows([][]float64{{1.5, 0, 0}, {0, 0, 0}})
//	batch := toc.Compress(m)
//	r := batch.MulVec([]float64{1, 2, 3}) // runs on the compressed form
//
// The package also exposes the paper's evaluation stack: the seven
// compared encodings behind one interface (Encode), the four ML models
// with an MGD training driver (NewModel, Train), synthetic stand-ins for
// the six evaluation datasets (GenerateDataset), and a memory-budgeted
// batch store that reproduces the out-of-core regime (NewStore).
package toc

import (
	"io"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/core"
	"toc/internal/data"
	"toc/internal/dist"
	"toc/internal/engine"
	"toc/internal/faultpoint"
	"toc/internal/formats"
	"toc/internal/matrix"
	"toc/internal/ml"
	"toc/internal/storage"
)

// Dense is a row-major dense matrix, the uncompressed mini-batch form.
type Dense = matrix.Dense

// NewDenseFromRows builds a matrix from per-row slices, copying them.
func NewDenseFromRows(rows [][]float64) *Dense { return matrix.NewDenseFromRows(rows) }

// Batch is a TOC-compressed mini-batch (the paper's contribution).
type Batch = core.Batch

// Compress encodes a dense mini-batch with the full TOC pipeline.
func Compress(m *Dense) *Batch { return core.Compress(m) }

// Deserialize reconstructs a TOC batch from its Serialize image.
func Deserialize(img []byte) (*Batch, error) { return core.Deserialize(img) }

// CompressedMatrix is the interface every mini-batch encoding implements:
// TOC, the light-weight schemes (CSR, CVI, DVI, CLA) and the general
// schemes (Gzip, Snappy). Its NewKernelPlan is the one way to multiply an
// encoded batch.
type CompressedMatrix = formats.CompressedMatrix

// DecodeTreeBuilds returns the cumulative number of decode-tree (C')
// builds in this process. With plan reuse, training builds the tree once
// per (batch, gradient step) rather than once per multiplication; this
// counter makes the amortization observable (cmd/toctrain prints it).
func DecodeTreeBuilds() uint64 { return core.TreeBuilds() }

// Codec pairs a scheme's encoder with its wire decoder.
type Codec = formats.Codec

// Methods lists every registered encoding method name.
func Methods() []string { return formats.Names() }

// PaperMethods lists the paper's compared methods in figure order.
func PaperMethods() []string { return formats.PaperMethods() }

// Encode compresses a mini-batch with the named method ("TOC", "CSR",
// "CVI", "DVI", "CLA", "DEN", "Gzip", "Snappy", or a TOC ablation
// variant such as "TOC_SPARSE", the sparse encoding alone, which is CSR).
// It panics on unknown names; use GetCodec to probe. Every batch plans:
// a TOC batch's NewKernelPlan builds its decode tree once for the two or
// three kernels a gradient step runs on it; every other scheme's plan is
// the batch itself, with nothing to build.
func Encode(method string, m *Dense) CompressedMatrix {
	return formats.MustGet(method)(m)
}

// GetCodec returns the codec registered under name.
func GetCodec(name string) (Codec, bool) { return formats.GetCodec(name) }

// Dataset is a generated dataset with features, labels and label arity.
type Dataset = data.Dataset

// DatasetNames lists the six paper evaluation dataset names.
func DatasetNames() []string { return data.Names() }

// GenerateDataset builds a synthetic stand-in for one of the paper's
// datasets ("census", "imagenet", "mnist", "kdd99", "rcv1", "deep1b").
func GenerateDataset(name string, rows int, seed int64) (*Dataset, error) {
	return data.Generate(name, rows, seed)
}

// Model is an empirical-risk model trained by mini-batch SGD, and the one
// contract every training driver takes: Loss and Predict; NumParams, Grad
// and ApplyGrad (a step is Grad then ApplyGrad, for Train and the engine
// alike); Params, SetParams and Clone (the flat parameter vector that
// checkpoints, the engine's cloned workers and the parameter server
// exchange); and SetKernelWorkers, which lets the compressed matrix
// kernels (A·M and M·A, the neural network's input layer) use multiple
// goroutines per gradient: the engine sets it from its worker pool, and
// serial callers may call model.SetKernelWorkers(8) to parallelize them
// inside Train, Loss and Predict without changing any result. The linear
// models run only the vector kernels, which never shard, and ignore it.
// Every model NewModel returns implements all of it.
type Model = ml.Model

// BatchSource supplies compressed mini-batches to the training driver.
type BatchSource = ml.BatchSource

// TrainResult records per-epoch losses and timings of a training run.
type TrainResult = ml.TrainResult

// EpochCallback observes each completed epoch: its index, the elapsed
// wall time and the epoch's mean mini-batch loss.
type EpochCallback = ml.EpochCallback

// NewModel constructs a model by name: "linreg", "lr", "svm" or "nn".
// LR and SVM become one-vs-rest ensembles when classes > 2.
func NewModel(name string, dims, classes int, hiddenScale float64, seed int64) (Model, error) {
	return ml.NewModel(name, dims, classes, hiddenScale, seed)
}

// NewMemorySource slices a dataset into mini-batches encoded with method.
func NewMemorySource(d *Dataset, batchSize int, method string) *ml.MemorySource {
	return ml.NewMemorySource(d, batchSize, formats.MustGet(method))
}

// Train runs mini-batch gradient descent (Equation 2 of the paper) for the
// given epochs over a batch source. cb may be nil.
func Train(m Model, src BatchSource, epochs int, lr float64, cb EpochCallback) *TrainResult {
	return ml.Train(m, src, epochs, lr, cb)
}

// EvaluateError returns a model's error rate over a batch source.
func EvaluateError(m Model, src BatchSource) float64 { return ml.EvaluateError(m, src) }

// Engine is the concurrent mini-batch training engine: it shards
// compression across a worker pool and runs data-parallel MGD for any
// (GroupSize, Staleness), merging each step's gradients in batch order
// and applying steps in visit order. At Staleness 0 the trajectory is
// identical for any worker count, and GroupSize 1 is serial Train's; a
// positive bound lets a slow batch delay only its own position, and a
// negative one free-runs. The pool is elastic and crash tolerant, and
// Stats report updates, staleness, and membership and crash counts.
type Engine = engine.Engine

// EngineConfig sizes the engine: Workers, GroupSize, Staleness, Seed,
// Deterministic, the restart budget, and the checkpoint and step-observer
// hooks.
type EngineConfig = engine.Config

// NewEngine builds a concurrent training engine.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// ElasticEvent is one membership change in an elastic schedule: after
// Step applied updates, add (Delta > 0) or remove (Delta < 0) workers.
// Feed a slice of them to Engine.ElasticHook, or call Engine.AddWorkers /
// RemoveWorkers directly from any goroutine.
type ElasticEvent = engine.ElasticEvent

// ParseElasticSchedule parses the "200:+4,500:-2" grammar used by
// toctrain's -elastic flag into a step-sorted schedule.
func ParseElasticSchedule(spec string) ([]ElasticEvent, error) {
	return engine.ParseElasticSchedule(spec)
}

// Store is a memory-budgeted mini-batch store: batches beyond the budget
// spill to disk and are re-read every epoch, reproducing the paper's
// out-of-core training regime. A batch stays resident iff it fits the
// budget left when it arrives. The spill side is sharded across N files
// (optionally N directories, modeling N devices), and its reads are paced
// by one simulated disk model: read bandwidth is an aggregate cap per
// directory and the access latency serializes per shard — see the
// StoreOption constructors.
type Store = storage.Store

// StoreOption configures a Store at construction (shard count, shard
// directories, simulated bandwidth and latency, read retries).
type StoreOption = storage.Option

// WithShards spreads the store's spill across n files; placement balances
// bytes and the prefetcher reads distinct shards concurrently.
func WithShards(n int) StoreOption { return storage.WithShards(n) }

// WithShardDirs places spill shards round-robin across directories,
// modeling distinct devices (each gets its own bandwidth budget).
func WithShardDirs(dirs ...string) StoreOption { return storage.WithShardDirs(dirs...) }

// WithReadBandwidth sets the simulated read bandwidth (bytes/second) at
// construction — an aggregate cap per shard directory that concurrent
// readers share; 0 leaves reads unthrottled.
func WithReadBandwidth(bytesPerSec int64) StoreOption {
	return storage.WithReadBandwidth(bytesPerSec)
}

// WithAccessLatency adds a fixed per-read latency to every spilled
// read (a spindle's seek, a cloud store's request overhead); it
// serializes within a shard and overlaps across shards.
func WithAccessLatency(d time.Duration) StoreOption { return storage.WithAccessLatency(d) }

// RetryPolicy bounds how a Store retries transient spilled-read
// failures: Attempts tries total, exponential backoff from Base capped
// at Max, with deterministic Seed-driven jitter.
type RetryPolicy = storage.RetryPolicy

// DefaultRetryPolicy is the retry discipline stores use out of the box.
func DefaultRetryPolicy() RetryPolicy { return storage.DefaultRetryPolicy() }

// WithReadRetry overrides the store's spilled-read retry policy.
func WithReadRetry(p RetryPolicy) StoreOption { return storage.WithReadRetry(p) }

// ReadError is the typed permanent-read failure a Store surfaces after
// its retry budget is spent; the final cause is in its chain.
type ReadError = storage.ReadError

// NewStore creates a store holding batches encoded with method under a
// resident-bytes budget; dir "" uses the OS temp dir. Options configure
// spill sharding, the disk model and the read retries.
func NewStore(dir, method string, budgetBytes int64, opts ...StoreOption) (*Store, error) {
	return storage.NewStore(dir, method, budgetBytes, opts...)
}

// Prefetcher reads spilled batches ahead of the training loop so their IO
// and wire decoding overlap compute instead of sitting on the critical
// path. It is a BatchSource that reads ahead in ingest order, the order
// every epoch visits.
// Its reader pool is split across the store's spill shards, so sharded
// stores serve truly concurrent reads. Engine.NewPrefetcher sizes one
// from the worker pool and optionally
// bound its window by compressed bytes. Every training loop releases a
// batch once its gradient is done, and the prefetcher then reuses the
// batch's memory for a later read; a caller of Batch may do the same
// with Release.
type Prefetcher = storage.Prefetcher

// ---- Fault tolerance: checkpoint/resume and crash-safe spill recovery ----

// CheckpointState is one versioned, CRC-guarded training snapshot: model
// parameters, schedule position (epoch, batch position and update
// clock) and staleness frontier. A run resumed from it reproduces the
// uninterrupted run's trajectory bitwise for every deterministic
// configuration (Staleness 0, or Deterministic mode).
type CheckpointState = checkpoint.State

// CheckpointWriter persists snapshots into a directory — atomically
// (temp file, fsync, rename) and off the training hot path on a
// background goroutine that coalesces bursts.
type CheckpointWriter = checkpoint.Writer

// NewCheckpointWriter opens (creating if needed) a checkpoint directory.
// Hand the writer to EngineConfig.Checkpoint.
func NewCheckpointWriter(dir string) (*CheckpointWriter, error) { return checkpoint.NewWriter(dir) }

// LatestCheckpoint loads the newest checkpoint in dir. A corrupt newest
// checkpoint is an error — never a silent fallback to an older one. When
// dir holds no checkpoints the error wraps os.ErrNotExist.
func LatestCheckpoint(dir string) (*CheckpointState, error) { return checkpoint.Latest(dir) }

// ErrHalted is returned by Engine.TrainFrom when Halt stopped the
// run after writing a final checkpoint.
var ErrHalted = engine.ErrHalted

// OpenStore recovers a spill store from the manifest WriteManifest
// wrote: shard files are reopened read-only, every spilled span is
// CRC-verified, and resident batches are decoded back into memory — no
// re-ingest. Truncated or bit-flipped shard files fail loudly here.
func OpenStore(manifestPath string, opts ...StoreOption) (*Store, error) {
	return storage.OpenStore(manifestPath, opts...)
}

// ArmFaultpoints arms the fault-injection registry from a spec like
// "checkpoint.rename=crash:2,storage.spill.mid=delay:5ms" — the test
// hook behind the crash-matrix suite, also reachable via the
// TOC_FAULTPOINTS environment variable. No-op cost when disarmed.
func ArmFaultpoints(spec string) error { return faultpoint.ArmSpec(spec) }

// ---- Distributed data-parallel training over net/rpc ----

// DistServer is the parameter server of a distributed run: it owns the
// model and the update clock, releases schedule positions to trainers
// under the engine's staleness gate (carried over the wire), and
// applies pushed gradients strictly in position order. A trainer that
// vanishes without a clean goodbye is a crash; its in-flight positions
// are requeued to the survivors. One trainer with the dense codec at
// staleness 0 walks the local engine's trajectory bitwise.
type DistServer = dist.Server

// DistServerConfig sizes a parameter-server run: schedule (Epochs,
// NumBatches, Seed), learning rate, staleness bound, gradient codec,
// simulated link, and checkpoint/resume.
type DistServerConfig = dist.ServerConfig

// DistTrainer is one worker process of a distributed run: it joins a
// DistServer over any io.ReadWriteCloser, pulls compressed parameter
// images, and pushes compressed gradients for the positions it is
// assigned.
type DistTrainer = dist.Trainer

// DistTrainerConfig configures a trainer's codec, which must match the
// server's.
type DistTrainerConfig = dist.TrainerConfig

// GradCodec compresses the two directions of parameter-server traffic:
// dense (exact baseline), top-k sparsification with error-feedback
// residuals, or error-compensated stochastic quantization.
type GradCodec = dist.GradCodec

// DistLink is a simulated network link: payloads in each direction
// drain at the configured bandwidth, an aggregate cap shared by every
// trainer, so bytes saved by a codec become wall-clock saved, measurably.
type DistLink = dist.Link

// ParseGradCodec resolves a codec spec — "dense", "topk:<ratio>"
// (fraction of coordinates kept, e.g. topk:0.01) or "dsq:<bits>" (2–8
// bit quantization). seed drives dsq's stochastic rounding stream.
func ParseGradCodec(spec string, seed int64) (GradCodec, error) { return dist.ParseCodec(spec, seed) }

// NewDistServer builds a parameter server around m; read the final
// parameters from m after Wait returns.
func NewDistServer(cfg DistServerConfig, m Model) (*DistServer, error) {
	return dist.NewServer(cfg, m)
}

// NewDistTrainer wraps a connection to a DistServer. The model must
// have the server model's parameter count and src the schedule's batch
// count.
func NewDistTrainer(conn io.ReadWriteCloser, m Model, src BatchSource, cfg DistTrainerConfig) *DistTrainer {
	return dist.NewTrainer(conn, m, src, cfg)
}

// NewDistLinkMbps builds a symmetric simulated link of the given
// megabits per second; mbps <= 0 returns nil (unmetered), and a positive
// rating never rounds down to unmetered.
func NewDistLinkMbps(mbps float64) *DistLink { return dist.NewLinkMbps(mbps) }
