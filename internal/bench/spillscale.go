package bench

import (
	"fmt"
	"time"

	"toc/internal/engine"
	"toc/internal/storage"
)

// Sharded spill scaling — the storage-layer scaling regime. Every batch
// spills; the simulated disk is a shared token bucket (one aggregate
// bandwidth cap however many readers pile on) plus a per-read seek that
// serializes within a shard. The sweep crosses spill
// shard count with engine worker count under that one fixed aggregate
// bandwidth, so the table shows exactly what sharding buys: the transfer
// bytes cost the same everywhere (the bucket is honest — agg_MBps never
// exceeds the cap), but the seeks overlap across shards, so 4 shards turn
// an epoch around faster than 1 at the same worker count. The per-request
// disk model would instead show throughput growing with queue depth —
// run with -disk-model per-request to see the cloud-block-store regime.

func init() {
	register("spillscale", "sharded spill scaling under one aggregate disk bandwidth", runSpillScale)
}

const (
	// spillScaleBandwidth is the aggregate token-bucket cap shared by all
	// shards of the simulated device.
	spillScaleBandwidth = 6 << 20 // bytes/s
	// spillScaleSeek is the per-read access latency; it serializes within
	// a shard and overlaps across shards, so it is the term sharding
	// amortizes.
	spillScaleSeek = 1500 * time.Microsecond
)

func runSpillScale(cfg Config) (*Table, error) {
	const batchSize, epochs = 250, 2
	t := &Table{
		ID:      "spillscale",
		Title:   "sharded spill scaling (all batches spilled, shared-bucket disk)",
		Columns: []string{"shards", "workers", "encode_ms", "epoch_ms", "agg_MBps", "speedup_vs_1shard", "final_loss"},
		Notes: []string{
			fmt.Sprintf("aggregate bandwidth fixed at %d MB/s (shared token bucket), seek %v per read",
				spillScaleBandwidth>>20, spillScaleSeek),
			"agg_MBps = spilled bytes read / wall clock; the bucket keeps it at or",
			"  below the cap at every queue depth — sharding buys seek overlap, not",
			"  extra bandwidth. final_loss is identical across the whole sweep.",
		},
	}
	d, err := getDataset("census", cfg.rows(6000), cfg.Seed)
	if err != nil {
		return nil, err
	}
	shardCounts := addCount([]int{1, 2, 4}, cfg.SpillShards)
	workerCounts := addCount([]int{1, 4, 8}, cfg.Workers)
	for _, w := range workerCounts {
		var oneShardEpoch float64
		for _, sc := range shardCounts {
			opts, err := cfg.spillOptions(sc, storage.SharedBucket)
			if err != nil {
				return nil, err
			}
			opts = append(opts,
				storage.WithReadBandwidth(spillScaleBandwidth),
				storage.WithAccessLatency(spillScaleSeek))
			st, err := storage.NewStore(cfg.Dir, "TOC", 1, opts...) // 1-byte budget: all spilled
			if err != nil {
				return nil, err
			}
			eng := engine.New(engine.Config{Workers: w, GroupSize: 8, Seed: cfg.Seed})
			encStart := time.Now()
			if err := eng.FillStore(st, d, batchSize); err != nil {
				st.Close()
				return nil, err
			}
			encodeTime := time.Since(encStart)
			// The aggregate-throughput window opens with the prefetcher:
			// it starts reading (and drawing bucket tokens) immediately,
			// before Train's own clock.
			ioStart := time.Now()
			pf := eng.NewPrefetcher(st, 16, 0)
			m, err := scalingModel(cfg, d)
			if err != nil {
				pf.Close()
				st.Close()
				return nil, err
			}
			res := eng.Train(m, pf, epochs, 0.2, nil)
			// Close drains the queued wrap-around prefetches, which also
			// count toward BytesRead — the window must cover them.
			pf.Close()
			ioWall := time.Since(ioStart)
			stats := st.Stats()
			st.Close()
			epochSec := res.Total.Seconds() / epochs
			if sc == 1 {
				oneShardEpoch = epochSec
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(sc), fmt.Sprint(w),
				fmt.Sprintf("%.0f", encodeTime.Seconds()*1e3),
				fmt.Sprintf("%.0f", epochSec*1e3),
				fmt.Sprintf("%.2f", float64(stats.BytesRead)/ioWall.Seconds()/(1<<20)),
				fmt.Sprintf("%.2f", oneShardEpoch/epochSec),
				fmt.Sprintf("%.6f", res.EpochLoss[epochs-1]),
			})
		}
	}
	return t, nil
}

// addCount appends extra to counts unless it is unset or already present.
func addCount(counts []int, extra int) []int {
	if extra <= 0 {
		return counts
	}
	for _, c := range counts {
		if c == extra {
			return counts
		}
	}
	return append(counts, extra)
}
