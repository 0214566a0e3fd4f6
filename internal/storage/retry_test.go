package storage

import (
	"errors"
	"testing"
	"time"

	"toc/internal/faultpoint"
	"toc/internal/testutil"
)

// retrySpilledStore builds a store whose batches all live on disk
// (budget 0) with the given retry policy.
func retrySpilledStore(t *testing.T, n int, retry RetryPolicy) *Store {
	t.Helper()
	xs, ys := testBatches(t, n, 20, 10)
	s, err := NewStore(t.TempDir(), "TOC", 0, WithReadRetry(retry))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := range xs {
		if err := s.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestRetryRecoversTransientReadError(t *testing.T) {
	defer faultpoint.Reset()
	s := retrySpilledStore(t, 4, RetryPolicy{Attempts: 3, Base: time.Microsecond, Max: 10 * time.Microsecond, Seed: 1})
	// One-shot transient fault on the very first read attempt.
	faultpoint.ArmError("storage.read.error", 1)
	c, _, err := s.TryBatch(0)
	if err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	if c == nil {
		t.Fatal("nil batch after successful retry")
	}
	st := s.Stats()
	if st.Retries < 1 {
		t.Fatalf("Retries = %d, want >= 1", st.Retries)
	}
	if st.FailedReads != 0 {
		t.Fatalf("FailedReads = %d, want 0", st.FailedReads)
	}
	if got := faultpoint.HitCount("storage.read.error"); got < 2 {
		t.Fatalf("fault point hit %d times, want >= 2 (original + retry)", got)
	}
}

func TestRetryRecoversOneShotCRCMismatch(t *testing.T) {
	defer faultpoint.Reset()
	s := retrySpilledStore(t, 4, RetryPolicy{Attempts: 3, Base: time.Microsecond, Seed: 1})
	faultpoint.ArmError("storage.read.crc", 1)
	if _, _, err := s.TryBatch(1); err != nil {
		t.Fatalf("one-shot CRC corruption not absorbed: %v", err)
	}
	if st := s.Stats(); st.Retries < 1 || st.FailedReads != 0 {
		t.Fatalf("stats = %+v, want >=1 retry and 0 failed reads", st)
	}
}

func TestPermanentFaultSurfacesTypedReadError(t *testing.T) {
	defer faultpoint.Reset()
	s := retrySpilledStore(t, 4, RetryPolicy{Attempts: 3, Base: time.Microsecond, Seed: 1})
	faultpoint.ArmErrorEvery("storage.read.error", 1, 1) // every attempt fails
	_, _, err := s.TryBatch(2)
	if err == nil {
		t.Fatal("permanent fault returned nil error")
	}
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) is not a *ReadError", err, err)
	}
	if re.Batch != 2 || re.Attempts != 3 {
		t.Fatalf("ReadError = %+v, want Batch 2, Attempts 3", re)
	}
	// The injected fault must survive the wrapping for chain inspection.
	var fe *faultpoint.Error
	if !errors.As(err, &fe) {
		t.Fatalf("injected faultpoint.Error not reachable through %v", err)
	}
	if st := s.Stats(); st.FailedReads != 1 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want FailedReads 1, Retries 2", st)
	}
	// Batch (the panicking variant) must throw the same typed value.
	func() {
		defer func() {
			if _, ok := recover().(*ReadError); !ok {
				t.Fatal("Batch did not panic with *ReadError")
			}
		}()
		s.Batch(2)
	}()
}

func TestBackoffIsSeededAndBounded(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		s := retrySpilledStore(t, 1, RetryPolicy{Attempts: 8, Base: 4 * time.Millisecond, Max: 16 * time.Millisecond, Seed: seed})
		var out []time.Duration
		s.mu.Lock()
		for n := 1; n <= 6; n++ {
			out = append(out, s.backoffLocked(n))
		}
		s.mu.Unlock()
		return out
	}
	a, b := seq(9), seq(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	for i, d := range a {
		// Jitter spans [d/2, 3d/2] around the capped exponential, so
		// nothing may exceed 1.5*Max.
		if d < 2*time.Millisecond || d > 24*time.Millisecond {
			t.Fatalf("retry %d backoff %v outside [Base/2, 1.5*Max]", i+1, d)
		}
	}
	if c := seq(10); func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical backoff sequences")
	}
}

func TestPrefetcherSurfacesReadErrorToConsumer(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	defer faultpoint.Reset()
	s := retrySpilledStore(t, 6, RetryPolicy{Attempts: 2, Base: time.Microsecond, Seed: 1})
	faultpoint.ArmErrorEvery("storage.read.error", 1, 1)
	p := NewPrefetcher(s, 2, 2, 0)
	defer p.Close()
	caught := func(i int) (r any) {
		defer func() { r = recover() }()
		p.Batch(i)
		return nil
	}(0)
	if caught == nil {
		t.Fatal("consumer did not observe the background read failure")
	}
	if _, ok := caught.(*ReadError); !ok {
		t.Fatalf("consumer panic is %T, want *ReadError", caught)
	}
	if st := p.Stats(); st.Errors < 1 {
		t.Fatalf("PrefetchStats.Errors = %d, want >= 1", st.Errors)
	}
	// Disarm and retry the same index: the errored entry must not be
	// stuck in the cache; a fresh read succeeds.
	faultpoint.Reset()
	if c, _ := p.Batch(0); c == nil {
		t.Fatal("batch unreadable after fault cleared")
	}
}

func TestPrefetcherCloseInterruptsRetryBackoff(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	defer faultpoint.Reset()
	// Long backoff: without cancellation Close would wait out most of
	// 10 x 2s sleeps; with the quit channel it must return promptly.
	s := retrySpilledStore(t, 6, RetryPolicy{Attempts: 10, Base: 2 * time.Second, Max: 2 * time.Second, Seed: 1})
	faultpoint.ArmErrorEvery("storage.read.error", 1, 1)
	p := NewPrefetcher(s, 3, 2, 0)
	// Wait until at least one background read has entered its retry
	// loop (first attempt failed, sleeping before the second).
	deadline := time.After(5 * time.Second)
	for s.Stats().Retries == 0 {
		select {
		case <-deadline:
			t.Fatal("no background read entered the retry loop")
		case <-time.After(time.Millisecond):
		}
	}
	start := time.Now()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v with readers in backoff; want prompt return", elapsed)
	}
	if st := s.Stats(); st.FailedReads == 0 {
		t.Fatalf("canceled read not accounted: %+v", st)
	}
}

func TestCanceledReadWrapsErrReadCanceled(t *testing.T) {
	defer faultpoint.Reset()
	s := retrySpilledStore(t, 2, RetryPolicy{Attempts: 5, Base: time.Hour, Max: time.Hour, Seed: 1})
	faultpoint.ArmErrorEvery("storage.read.error", 1, 1)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, _, err := s.batch(0, cancel)
		done <- err
	}()
	// Give the read time to fail once and enter its hour-long backoff.
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrReadCanceled) {
			t.Fatalf("err = %v, want ErrReadCanceled in chain", err)
		}
		var re *ReadError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *ReadError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled read did not return")
	}
}
