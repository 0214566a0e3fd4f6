package storage

import (
	"sync"
	"time"

	"toc/internal/pace"
)

// disk is the simulated storage hardware under a store's spill shards,
// and the only model there is. Every directory is one device with one
// read-bandwidth budget (a pace.Bucket), so the aggregate throughput of
// all shards in it never exceeds the configured rate however many
// readers pile on; spreading shards over distinct directories
// (WithShardDirs) is what adds bandwidth. Every shard is one arm: a
// request occupies it from its seek to the end of its transfer, so the
// access latency serializes within a shard and overlaps across shards —
// which is what more shards on one device buy.
type disk struct {
	// bandwidth, latency and dev are fixed at construction, so an
	// unthrottled read consults the model without taking a lock.
	bandwidth int64          // read bytes/s per device; <= 0 = unthrottled
	latency   time.Duration  // per-read access (seek) time
	dev       []*pace.Bucket // per shard: its directory's budget

	mu sync.Mutex
	//toc:guardedby mu
	arm []time.Time // per shard: when its arm is next free
}

// newDisk models the given shards: those sharing a directory (the
// cleaned path, however it was spelled) share one device.
func newDisk(shards []*shard, bandwidth int64, latency time.Duration) *disk {
	d := &disk{
		bandwidth: bandwidth, latency: latency,
		dev: make([]*pace.Bucket, len(shards)), arm: make([]time.Time, len(shards)),
	}
	byDir := map[string]*pace.Bucket{}
	for i, sh := range shards {
		if byDir[sh.dir] == nil {
			byDir[sh.dir] = new(pace.Bucket)
		}
		d.dev[i] = byDir[sh.dir]
	}
	return d
}

// reserve books a read of n bytes from shard requested at now and
// returns when it completes: the shard's arm frees up, seeks, then moves
// the bytes through its device's budget. The caller does the real read
// and then sleeps until the returned time. With no bandwidth and no
// latency configured the read is free: reserve returns now and touches
// no shared state.
func (d *disk) reserve(now time.Time, shard int, n int64) time.Time {
	bw, seek := d.bandwidth, d.latency
	if bw <= 0 && seek <= 0 {
		return now
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	done := now
	if d.arm[shard].After(now) {
		done = d.arm[shard]
	}
	if seek > 0 {
		done = done.Add(seek)
	}
	if bw > 0 {
		done = d.dev[shard].Reserve(done, pace.Transfer(n, bw))
	}
	d.arm[shard] = done
	return done
}
