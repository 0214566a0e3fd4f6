package storage

import (
	"errors"
	"fmt"
	"time"
)

// ErrReadCanceled marks a spilled read abandoned because its cancel
// channel closed mid-backoff — the Prefetcher's Close interrupting a
// retry sleep. It is wrapped inside the resulting ReadError.
var ErrReadCanceled = errors.New("storage: spilled read canceled")

// RetryPolicy bounds the retry loop a spilled-batch read runs before
// surfacing a ReadError. Transient faults — an EIO that a re-read
// clears, a torn page that rereads clean — are absorbed by the loop;
// persistent ones fail after Attempts tries with the last cause
// attached.
type RetryPolicy struct {
	// Attempts is the total number of tries per read; 1 means no retry.
	// Values < 1 are treated as 1.
	Attempts int
	// Base is the backoff before the first retry. It doubles on each
	// further retry, capped at Max, and is jittered uniformly over
	// [d/2, 3d/2] from a stream seeded by Seed — deterministic run to
	// run, decorrelated read to read. Base <= 0 retries immediately.
	Base time.Duration
	// Max caps the exponential growth; 0 means Base (no growth).
	Max time.Duration
	// Seed seeds the jitter stream so backoff sequences are
	// reproducible.
	Seed int64
}

// DefaultRetryPolicy is the retry behavior a store is built with unless
// WithReadRetry overrides it: three tries with a small capped backoff,
// enough to clear one-shot faults without stalling a real dead disk for
// long.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 20 * time.Millisecond, Seed: 1}
}

// WithReadRetry sets the retry policy for spilled-batch reads.
func WithReadRetry(p RetryPolicy) Option {
	return func(c *storeConfig) { c.retry = p }
}

// ReadError is the typed, permanent failure of a spilled-batch read:
// every attempt the retry policy allowed failed. It unwraps to the last
// attempt's cause, so errors.Is/As reach an injected faultpoint.Error
// or the underlying IO error through it.
type ReadError struct {
	Batch    int   // batch index whose read failed
	Shard    int   // spill shard it lives on
	Attempts int   // attempts made before giving up
	Err      error // the last attempt's failure
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("storage: read spilled batch %d (shard %d) failed after %d attempts: %v",
		e.Batch, e.Shard, e.Attempts, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// backoffLocked returns the jittered exponential delay before retry n
// (1-based: n attempts have already failed). Must be called with s.mu
// held — the jitter stream is part of the mu-guarded store state.
//
//toc:locked mu
func (s *Store) backoffLocked(n int) time.Duration {
	d := s.retry.Base
	if d <= 0 {
		return 0
	}
	max := s.retry.Max
	if max <= 0 {
		max = d
	}
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Uniform jitter over [d/2, 3d/2] from the seeded stream: retries
	// against a shared device decorrelate without losing reproducibility.
	return d/2 + time.Duration(s.jitter.Int63n(int64(d)+1))
}

// sleepOrCancel sleeps for d unless cancel closes first; it reports
// whether the full sleep completed. A nil cancel never interrupts.
func sleepOrCancel(d time.Duration, cancel <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	if cancel == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}
