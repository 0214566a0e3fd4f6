package dist

import (
	"math/rand"
	"testing"
	"time"

	"toc/internal/pace"
)

// The link is arithmetic on the caller's clock, so these tests hand it
// made-up times: no sleeps, no goroutines, exact completion times.
var t0 = time.Unix(1_000_000, 0)

// However the callers' clocks interleave — all at once, spaced inside
// the backlog, arriving out of order — a direction never moves bytes
// faster than its rate: completions only move forward, and the last one
// is no sooner than total bytes ÷ rate after the first request. With no
// idle gap between requests it is exactly that.
func TestLinkHoldsItsRateAtAnyInterleaving(t *testing.T) {
	const bps, n, sends = 1000, 250, 8 // 250 ms per send
	rng := rand.New(rand.NewSource(1))
	shuffled := make([]time.Duration, sends)
	for i := range shuffled {
		shuffled[i] = time.Duration(rng.Intn(200)) * time.Millisecond
	}
	for name, offset := range map[string]func(i int) time.Duration{
		"all at once":  func(int) time.Duration { return 0 },
		"in backlog":   func(i int) time.Duration { return time.Duration(i) * 100 * time.Millisecond },
		"out of order": func(i int) time.Duration { return shuffled[i] },
	} {
		l := &Link{upBps: bps}
		var last time.Time
		for i := 0; i < sends; i++ {
			done := l.Up(t0.Add(offset(i)), n)
			if done.Before(last) {
				t.Errorf("%s: send %d completes at %v, before its predecessor's %v", name, i, done, last)
			}
			last = done
		}
		if want := t0.Add(offset(0)).Add(pace.Transfer(sends*n, bps)); !last.Equal(want) {
			t.Errorf("%s: %d bytes at %d B/s complete at %v, want %v", name, sends*n, bps, last, want)
		}
	}
	// Requests spaced wider than a transfer leave the link idle between
	// them; the idle time is lost, not banked.
	l := &Link{upBps: bps}
	for i := 0; i < sends; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		if got, want := l.Up(now, n), now.Add(250*time.Millisecond); !got.Equal(want) {
			t.Errorf("send %d after an idle gap completes at %v, want %v", i, got, want)
		}
	}
}

func TestLinkDirectionsAreIndependentBudgets(t *testing.T) {
	l := &Link{upBps: 1000, downBps: 500}
	up := l.Up(t0, 1000)
	down := l.Down(t0, 1000)
	if want := t0.Add(time.Second); !up.Equal(want) {
		t.Errorf("uplink second of traffic completes at %v, want %v", up, want)
	}
	if want := t0.Add(2 * time.Second); !down.Equal(want) {
		t.Errorf("downlink completes at %v, want %v: it must not queue behind the uplink", down, want)
	}
}

func TestUnmeteredLinkIsFree(t *testing.T) {
	var none *Link
	for name, l := range map[string]*Link{"nil": none, "zero rate": {}, "negative rate": {upBps: -5, downBps: -5}, "0 Mbit/s": NewLinkMbps(0), "negative Mbit/s": NewLinkMbps(-1)} {
		for i := 0; i < 3; i++ {
			if up, down := l.Up(t0, 1<<30), l.Down(t0, 1<<30); !up.Equal(t0) || !down.Equal(t0) {
				t.Errorf("%s link: a gigabyte completes at %v up, %v down; want the request time %v", name, up, down, t0)
			}
		}
	}
}

// A positive rating below one byte per second must stay a metered link:
// rounding it to zero would turn the slowest wire into the unmetered one.
func TestNewLinkMbpsNeverRoundsToUnmetered(t *testing.T) {
	l := NewLinkMbps(1e-6) // 0.125 bytes/s
	if l == nil {
		t.Fatal("a positive rating built the unmetered link")
	}
	if got, want := l.Up(t0, 2), t0.Add(2*time.Second); !got.Equal(want) {
		t.Errorf("2 bytes complete at %v, want %v (clamped to 1 byte/s)", got, want)
	}
	if got, want := NewLinkMbps(200).Down(t0, 25_000_000), t0.Add(time.Second); !got.Equal(want) {
		t.Errorf("25 MB at 200 Mbit/s complete at %v, want %v", got, want)
	}
}
