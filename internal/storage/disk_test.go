package storage

import (
	"sync"
	"testing"
	"time"

	"toc/internal/matrix"
	"toc/internal/pace"
)

// shardedSpilledStore builds a store of n identical-shape batches that all
// spill, spread over the given shard count.
func shardedSpilledStore(t *testing.T, n, shards int, opts ...Option) *Store {
	t.Helper()
	opts = append([]Option{WithShards(shards)}, opts...)
	st, err := NewStore(t.TempDir(), "TOC", 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for b := 0; b < n; b++ {
		x := matrix.NewDense(4, 6)
		for i := 0; i < 4; i++ {
			for j := 0; j < 6; j++ {
				x.Set(i, j, float64((b+i*j)%5))
			}
		}
		if err := st.Add(x, []float64{0, 1, 0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Spilled() {
		t.Fatal("expected batches to spill")
	}
	return st
}

// The disk model is arithmetic on the caller's clock, so the pacing tests
// below run a real store's layout through it in virtual time: no sleeps,
// no goroutines, exact makespans.
var t0 = time.Unix(1_000_000, 0)

// scan replays one epoch of reads against the store's disk model: a
// closed loop of readers, reader r reading batches r, r+readers, … and
// issuing each read the instant its previous one completes. Reads are
// reserved in time order (ties to the lower reader), as a real run would
// issue them. It returns the epoch's makespan.
func scan(st *Store, readers int) time.Duration {
	free := make([]time.Time, readers)
	next := make([]int, readers)
	for r := range free {
		free[r], next[r] = t0, r
	}
	end := t0
	for {
		r := -1
		for i := range free {
			if next[i] < st.NumBatches() && (r < 0 || free[i].Before(free[r])) {
				r = i
			}
		}
		if r < 0 {
			return end.Sub(t0)
		}
		sp := st.spans[next[r]]
		free[r] = st.disk.reserve(free[r], sp.shard, sp.length)
		next[r] += readers
		if free[r].After(end) {
			end = free[r]
		}
	}
}

// transferTime is what moving shard's spilled bytes costs at bw, one
// transfer after another; shard < 0 means every shard's.
func transferTime(st *Store, bw int64, shard int) time.Duration {
	var total time.Duration
	for _, sp := range st.spans {
		if shard < 0 || sp.shard == shard {
			total += pace.Transfer(sp.length, bw)
		}
	}
	return total
}

// The bandwidth is an aggregate cap per device: one reader or eight, an
// epoch over four shards in one directory takes exactly its bytes divided
// by the rate. And the budget is use-it-or-lose-it: a device left idle
// banks no credit for the next read.
func TestReadBandwidthHoldsAggregateCapRegardlessOfQueueDepth(t *testing.T) {
	const bw = 1 << 20
	for _, readers := range []int{1, 8} {
		st := shardedSpilledStore(t, 16, 4, WithReadBandwidth(bw))
		if got, want := scan(st, readers), transferTime(st, bw, -1); got != want {
			t.Errorf("%d readers: epoch takes %v, want exactly bytes/bandwidth = %v", readers, got, want)
		}
		later := t0.Add(time.Hour)
		sp := st.spans[0]
		if got, want := st.disk.reserve(later, sp.shard, sp.length), later.Add(pace.Transfer(sp.length, bw)); !got.Equal(want) {
			t.Errorf("%d readers: read after an idle hour completes at %v, want %v — idle time granted credit", readers, got, want)
		}
	}
}

// What more shards on one device buy: the access latency serializes
// within a shard (one arm) and overlaps across shards, so a seek-bound
// epoch over four shards takes less than half of what one shard takes —
// while the shared bandwidth budget still floors both.
func TestShardingRaisesEpochThroughputUnderBandwidthCap(t *testing.T) {
	const (
		n       = 32
		readers = 8
		seek    = 2 * time.Millisecond
		bw      = 1 << 20 // ample: the seek, not the transfer, dominates
	)
	opts := []Option{WithReadBandwidth(bw), WithAccessLatency(seek)}
	one := shardedSpilledStore(t, n, 1, opts...)
	four := shardedSpilledStore(t, n, 4, opts...)
	t1, t4 := scan(one, readers), scan(four, readers)
	if want := n*seek + transferTime(one, bw, -1); t1 != want {
		t.Errorf("1-shard epoch takes %v, want every seek and transfer in series = %v", t1, want)
	}
	if 2*t4 > t1 {
		t.Errorf("4-shard epoch %v, 1-shard %v — sharding should at least halve a seek-bound epoch", t4, t1)
	}
	if floor := transferTime(four, bw, -1); t4 < floor {
		t.Errorf("4-shard epoch %v beat the bandwidth floor %v", t4, floor)
	}
}

// What more devices buy: shards in distinct directories draw on distinct
// budgets, shards in one directory share one. With every read queued up
// front, two devices finish when the busier one does; one device takes
// the sum.
func TestShardDirsAreDistinctBandwidthBudgets(t *testing.T) {
	const n, bw = 16, 1 << 20
	shared := shardedSpilledStore(t, n, 2, WithReadBandwidth(bw))
	split := shardedSpilledStore(t, n, 2, WithReadBandwidth(bw), WithShardDirs(t.TempDir(), t.TempDir()))
	if got, want := scan(shared, n), transferTime(shared, bw, -1); got != want {
		t.Errorf("two shards, one directory: epoch takes %v, want %v", got, want)
	}
	want := max(transferTime(split, bw, 0), transferTime(split, bw, 1))
	if got := scan(split, n); got != want {
		t.Errorf("two shards, two directories: epoch takes %v, want the busier device's %v", got, want)
	}
	if want >= transferTime(split, bw, -1) {
		t.Fatal("degenerate layout: one device holds every batch")
	}
}

// An unthrottled store — every default NewStore — pays nothing for the
// model: concurrent readers reserve nothing, so they neither lock nor
// advance any arm or device budget, and never sleep.
func TestUnthrottledReadsBypassTheDiskModel(t *testing.T) {
	st := shardedSpilledStore(t, 16, 1)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < st.NumBatches(); i += 8 {
				st.Batch(i)
			}
		}(r)
	}
	wg.Wait()
	if got := st.Stats().Reads; got != 16 {
		t.Fatalf("Reads = %d, want 16", got)
	}
	st.disk.mu.Lock()
	arm := st.disk.arm[0]
	st.disk.mu.Unlock()
	// A zero-length reservation at the zero time reads a bucket's state
	// back without disturbing it.
	if !arm.IsZero() || !st.disk.dev[0].Reserve(time.Time{}, 0).IsZero() {
		t.Error("unthrottled reads went through the disk model's arm or device budget")
	}
	if got := st.disk.reserve(t0, 0, 1<<20); !got.Equal(t0) {
		t.Errorf("unthrottled reserve returns %v, want its own now %v", got, t0)
	}
}

// The one wall-clock check here: a throttled read really is held until
// its reservation completes.
func TestThrottledReadSleepsOutItsReservation(t *testing.T) {
	bw := shardedSpilledStore(t, 1, 1).spans[0].length * 100 // 10ms per read
	st := shardedSpilledStore(t, 1, 1, WithReadBandwidth(bw))
	st.Batch(0)
	if got, want := st.Stats().ReadTime, pace.Transfer(st.spans[0].length, bw); got < want {
		t.Errorf("throttled read took %v, want at least its transfer time %v", got, want)
	}
}
