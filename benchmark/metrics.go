package main

import "fmt"

// metricDef is one row of the metric catalog. BENCHMARK.json lists the
// same rows (TestBenchmarkJSONMatchesProgram); README.md says what each
// one means and which end-to-end metric it should move.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// The bounds are what this 2-core sandbox supports, not what the issue
// hoped for (10% on time, 0.5% on bytes): over ten seeds the quartiles of
// a time metric lie 3-7% of the median apart on a quiet machine and up to
// 20% apart when a neighbour is busy (README.md, "How steady"), and the
// generated data moves stored_ratio by up to 2.5% from seed to seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"cpu_us_per_row", "us/row", "lower", 0.25},
	{"stored_ratio", "ratio", "higher", 0.08},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// perLayer metrics are not gated. A workload that does not enter a layer
// reports that layer's metrics as 0.
var perLayer = []metricDef{
	{name: "trace_overhead", unit: "ratio", better: "lower"},

	{name: "core.tree_build_us", unit: "us", better: "lower"},
	{name: "core.tree_builds_per_step", unit: "count", better: "lower"},
	{name: "core.mulvec_ns_per_nnz", unit: "ns", better: "lower"},
	{name: "core.vecmul_ns_per_nnz", unit: "ns", better: "lower"},
	{name: "core.mulmat_ns_per_nnz", unit: "ns", better: "lower"},
	{name: "core.matmul_ns_per_nnz", unit: "ns", better: "lower"},
	{name: "core.kernel_share", unit: "share", better: "lower"},
	{name: "core.compress_us_per_batch", unit: "us", better: "lower"},
	{name: "core.encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "core.deserialize_us_per_batch", unit: "us", better: "lower"},
	{name: "core.deserialize_mb_s", unit: "MB/s", better: "higher"},
	{name: "core.bytes_per_nnz", unit: "bytes", better: "lower"},
	{name: "core.resident_overhead", unit: "ratio", better: "lower"},
	{name: "core.vs_den", unit: "ratio", better: "higher"},

	{name: "ml.grad_us", unit: "us", better: "lower"},
	{name: "ml.grad_self_us", unit: "us", better: "lower"},
	{name: "ml.apply_us", unit: "us", better: "lower"},
	{name: "ml.step_p50_us", unit: "us", better: "lower"},
	{name: "ml.step_p99_us", unit: "us", better: "lower"},
	{name: "ml.steps", unit: "count", better: "higher"},
	{name: "ml.allocs_per_step", unit: "count", better: "lower"},
	{name: "ml.alloc_bytes_per_step", unit: "bytes", better: "lower"},

	{name: "matrix.den_rows_per_s", unit: "rows/s", better: "higher"},

	{name: "storage.read_us_p50", unit: "us", better: "lower"},
	{name: "storage.read_us_p99", unit: "us", better: "lower"},
	{name: "storage.read_mb_s", unit: "MB/s", better: "higher"},
	{name: "storage.read_busy_share", unit: "share", better: "lower"},
	{name: "storage.reads_per_visit", unit: "count", better: "lower"},
	{name: "storage.wasted_read_ratio", unit: "ratio", better: "lower"},
	{name: "storage.prefetch_hit_ratio", unit: "ratio", better: "higher"},
	{name: "storage.retries", unit: "count", better: "lower"},
	{name: "storage.failed_reads", unit: "count", better: "lower"},
	{name: "storage.batch_wait_us_p50", unit: "us", better: "lower"},
	{name: "storage.batch_wait_us_p99", unit: "us", better: "lower"},
	{name: "storage.prefetch_stall_ms_per_epoch", unit: "ms", better: "lower"},
	{name: "storage.add_us_per_batch", unit: "us", better: "lower"},
	{name: "storage.spill_write_mb_s", unit: "MB/s", better: "higher"},
	{name: "storage.manifest_ms", unit: "ms", better: "lower"},

	{name: "engine.idle_share", unit: "share", better: "lower"},
	{name: "engine.snapshot_us", unit: "us", better: "lower"},
	{name: "engine.async_mean_staleness", unit: "count", better: "lower"},
	{name: "engine.async_rejected", unit: "count", better: "lower"},
	{name: "engine.fill_rows_per_s", unit: "rows/s", better: "higher"},

	{name: "checkpoint.save_ms_p50", unit: "ms", better: "lower"},
	{name: "checkpoint.bytes", unit: "bytes", better: "lower"},
	{name: "checkpoint.files", unit: "count", better: "lower"},

	{name: "dist.encode_grad_us", unit: "us", better: "lower"},
	{name: "dist.decode_grad_us", unit: "us", better: "lower"},
	{name: "dist.encode_snap_us", unit: "us", better: "lower"},
	{name: "dist.decode_snap_us", unit: "us", better: "lower"},
	{name: "dist.up_bytes_per_update", unit: "bytes", better: "lower"},
	{name: "dist.down_bytes_per_update", unit: "bytes", better: "lower"},
	{name: "dist.wire_ratio", unit: "ratio", better: "lower"},
	{name: "dist.pulls_per_update", unit: "count", better: "lower"},
	{name: "dist.rejected", unit: "count", better: "lower"},
	{name: "dist.mean_staleness", unit: "count", better: "lower"},
	{name: "dist.rpc_wait_share", unit: "share", better: "lower"},
	{name: "dist.dense_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "dist.vs_dense", unit: "ratio", better: "higher"},
}

// value is how a metric is printed: as measured, with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds one workload's values for a catalog. Every catalog
// name is present from the start, and a name outside it is a bug, so the
// program's output and the catalog cannot drift apart.
type metricSet map[string]value

func newMetricSet(defs []metricDef) metricSet {
	ms := make(metricSet, len(defs))
	for _, d := range defs {
		ms[d.name] = value{Unit: d.unit}
	}
	return ms
}

func (ms metricSet) set(name string, v float64) {
	cur, ok := ms[name]
	if !ok {
		panic(fmt.Sprintf("metric %q is not in the catalog", name))
	}
	cur.Value = v
	ms[name] = cur
}

func (ms metricSet) get(name string) float64 { return ms[name].Value }
