// Package pace is the one pacer behind every simulated device — the
// spill store's disks and the parameter server's link. A transfer is
// arithmetic on a caller-supplied clock: reserve it, do the real work,
// then sleep until the returned completion time. Nothing here reads the
// wall clock or sleeps, so tests drive it with made-up times.
package pace

import (
	"sync"
	"time"
)

// Bucket is a channel that carries one transfer at a time. It holds the
// completion time of the last admitted transfer; idle time grants no
// credit (a transfer never starts before its now), so N back-to-back
// transfers finish no sooner than their total duration after the first
// began, at any queue depth. The zero Bucket is idle.
type Bucket struct {
	mu sync.Mutex
	//toc:guardedby mu
	next time.Time
}

// Reserve admits a transfer of length d requested at now and returns
// when it completes: it starts at max(now, the previous completion).
func (b *Bucket) Reserve(now time.Time, d time.Duration) (done time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.next.Before(now) {
		b.next = now
	}
	b.next = b.next.Add(d)
	return b.next
}

// Transfer is how long n bytes occupy a channel of bps bytes per second.
func Transfer(n, bps int64) time.Duration {
	return time.Duration(float64(n) / float64(bps) * float64(time.Second))
}
