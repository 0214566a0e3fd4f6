package dist

import (
	"time"

	"toc/internal/pace"
)

// Link is a simulated network interface: one pace.Bucket per direction,
// shared by every trainer talking to the server, so each direction's
// aggregate is capped at its rate at any queue depth — the spill
// store's disk model applied to a NIC. The server reserves uplink time
// for every payload it receives and downlink time for every payload it
// sends and sleeps until the reservation completes, so a codec's saved
// bytes are saved wall-clock: bytes ÷ bandwidth, measurable in-process
// without network hardware. Up and Down are arithmetic on the caller's
// now; a nil *Link is an unmetered wire.
type Link struct {
	upBps, downBps int64
	up, down       pace.Bucket
}

// NewLinkMbps builds a symmetric link from a megabits-per-second rating
// (the -link-mbps flag); <= 0 returns nil, the unmetered wire. A positive
// rating too slow to round to a whole byte per second is metered at
// 1 byte/s — it must not silently become the unmetered wire.
func NewLinkMbps(mbps float64) *Link {
	if mbps <= 0 {
		return nil
	}
	bps := max(1, int64(mbps*1e6/8))
	return &Link{upBps: bps, downBps: bps}
}

// Up reserves n bytes of trainer→server transfer requested at now and
// returns when it completes.
func (l *Link) Up(now time.Time, n int) time.Time {
	if l == nil {
		return now
	}
	return reserve(&l.up, now, n, l.upBps)
}

// Down reserves n bytes of server→trainer transfer requested at now and
// returns when it completes.
func (l *Link) Down(now time.Time, n int) time.Time {
	if l == nil {
		return now
	}
	return reserve(&l.down, now, n, l.downBps)
}

func reserve(b *pace.Bucket, now time.Time, n int, bps int64) time.Time {
	if n <= 0 || bps <= 0 {
		return now
	}
	return b.Reserve(now, pace.Transfer(int64(n), bps))
}
