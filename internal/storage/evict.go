package storage

import (
	"fmt"
	"sync"
)

// EvictionPolicy decides which batches stay resident when the memory
// budget overflows during ingest. The store consults it on every Add that
// does not fit: residents whose Value is strictly lower than the incoming
// batch's are eviction candidates, cheapest first; if spilling enough of
// them frees room, they go to disk and the incoming batch stays resident,
// otherwise the incoming batch spills (no resident is disturbed).
//
// Value is a retention score — higher means more worth keeping in memory.
// It is consulted only during the single-threaded ingest phase, never on
// the concurrent read path.
type EvictionPolicy interface {
	// Name returns the flag-friendly policy name.
	Name() string
	// Value scores batch idx of the given compressed size; batches with
	// lower values are evicted before batches with higher values, and an
	// incoming batch only displaces residents scoring strictly below it.
	Value(idx int, size int64) float64
}

// OrderAware is implemented by eviction policies that rank batches by
// their position in the upcoming epoch's visit order — the same
// permutation the engine announces to the Prefetcher via SetOrder /
// SetNextOrder. Store.SetUpcomingOrder forwards to it.
type OrderAware interface {
	SetUpcomingOrder(order []int)
}

// firstFit is the historical policy: batches are admitted in arrival
// order until the budget is exhausted and never displaced afterwards.
type firstFit struct{}

func (firstFit) Name() string { return "first-fit" }

// Value decreases with arrival order, so an incoming batch (always the
// highest index so far) never outranks a resident: no eviction, ever.
func (firstFit) Value(idx int, size int64) float64 { return -float64(idx) }

// largestFirst evicts the largest-compressed resident batches first,
// keeping the smallest ones in memory. Keeping small batches maximizes
// the resident *count*, so the number of spilled reads per epoch is
// minimized — possibly at the cost of more spilled *bytes* (a big batch
// displaced by two smalls leaves more data on disk). That is the right
// trade on seek-bound devices (a store with an access latency),
// where per-epoch IO cost is dominated by the number of spilled reads,
// and the wrong one on purely bandwidth-bound devices.
type largestFirst struct{}

func (largestFirst) Name() string { return "largest-first" }

func (largestFirst) Value(idx int, size int64) float64 { return -float64(size) }

// accessOrder is the Belady-style policy: batches visited earliest in the
// upcoming epoch are the most valuable residents. The epoch head is
// exactly where the prefetcher has had no time to run ahead, so keeping
// it resident converts cold-start stalls into hits; batches visited late
// are cheap to spill because the prefetch window reaches them long before
// the training loop does. Before any order is announced it falls back to
// arrival order (sequential epochs visit batches in that order anyway).
type accessOrder struct {
	mu sync.Mutex
	//toc:guardedby mu
	pos map[int]int
}

func (p *accessOrder) Name() string { return "access-order" }

func (p *accessOrder) SetUpcomingOrder(order []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pos = make(map[int]int, len(order))
	for at, idx := range order {
		p.pos[idx] = at
	}
}

func (p *accessOrder) Value(idx int, size int64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if at, ok := p.pos[idx]; ok {
		return -float64(at)
	}
	return -float64(idx)
}

// FirstFit returns the default residency policy: admit in arrival order
// until the budget is exhausted, never evict.
func FirstFit() EvictionPolicy { return firstFit{} }

// LargestFirst returns the cost-aware policy that keeps the smallest
// compressed batches resident, minimizing the number of spilled reads
// per epoch.
func LargestFirst() EvictionPolicy { return largestFirst{} }

// AccessOrder returns the Belady-style policy that keeps the batches
// visited earliest in the announced epoch order resident (see
// Store.SetUpcomingOrder).
func AccessOrder() EvictionPolicy { return &accessOrder{} }

// NewEvictionPolicy resolves a flag value ("first-fit", "largest-first",
// "access-order"/"belady") to a fresh policy instance.
func NewEvictionPolicy(name string) (EvictionPolicy, error) {
	switch name {
	case "first-fit", "":
		return FirstFit(), nil
	case "largest-first", "largest":
		return LargestFirst(), nil
	case "access-order", "belady":
		return AccessOrder(), nil
	default:
		return nil, fmt.Errorf("storage: unknown eviction policy %q (want first-fit, largest-first or access-order)", name)
	}
}
