package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by a
// decorator in this directory (spans inside the program are a later
// issue, ROADMAP 1a). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a top-level span
	// Step ties the spans of one mini-batch visit together: the source
	// decorator numbers visits, and the wait, gradient and kernel spans of
	// a visit carry its number. Apply spans carry the update's sequence
	// number instead (an update is not tied to one visit in the group and
	// staleness loops).
	Step int64 `json:"step"`
	// Worker says who ran the span, in place of a goroutine id (reading
	// one costs a stack walk, ~10 us, on every span): the model replica a
	// gradient, update or snapshot was called on — 0 is the live model,
	// every async worker and every trainer owns one clone, the sync
	// engine's workers share replica 0 — or the codec clone or connection
	// number. A wait span has none (-1); its step names its gradient span.
	Worker int32 `json:"worker"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	// Work is the span's operation count where one is known: nonzeros
	// (times the dense width for the matrix kernels) or payload bytes.
	Work int64 `json:"work,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

const noParent = -1

// tracer keeps the spans of one traced run in memory.
type tracer struct {
	t0      time.Time
	ids     atomic.Int32
	visits  atomic.Int64 // mini-batch visits numbered by the source decorator
	updates atomic.Int64 // parameter updates numbered by the model decorator
	clones  atomic.Int32 // model replicas and codec clones numbered as made
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a top-level span.
func (t *tracer) begin(name string, step int64, worker int32) span {
	return span{Name: name, ID: t.ids.Add(1) - 1, Parent: noParent, Step: step,
		Worker: worker, Start: int64(time.Since(t.t0))}
}

// child opens a span caused by parent.
func (t *tracer) child(name string, parent span) span {
	return span{Name: name, ID: t.ids.Add(1) - 1, Parent: parent.ID, Step: parent.Step,
		Worker: parent.Worker, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s span) {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// done returns the spans recorded so far. It copies under the lock: a
// goroutine the program leaves behind (net/rpc's client reader sees the
// close after Run has returned) may still be ending its last span.
func (t *tracer) done() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	index := make(map[int32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != noParent {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// writeTrace dumps one workload's spans as JSON lines, after a line
// naming the workload.
func writeTrace(w io.Writer, workload string, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]string{"workload": workload}); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(nearestRank(len(sorted), int(math.Round(p*100)))-1, 0), len(sorted)-1)]
}

// nearestRank is ceil(n·bp/10000): the 1-based rank of the percentile
// given in basis points, in exact integer arithmetic.
func nearestRank(n, bp int) int { return (n*bp + 9999) / 10000 }

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentile returns the highest of the conventional percentiles
// that still has at least ten of n samples beyond it — a tail read off
// fewer samples than that is noise. Below twenty samples only the median
// qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, bp := range []int{7500, 9000, 9500, 9900, 9990, 9999} {
		if n-nearestRank(n, bp) >= 10 {
			best = float64(bp) / 100
		}
	}
	return best
}
