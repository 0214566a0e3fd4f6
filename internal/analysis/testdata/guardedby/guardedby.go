// Package fixture exercises the guardedby analyzer: fields annotated
// //toc:guardedby mu must only be accessed with mu held.
package fixture

import "sync"

type counter struct {
	mu sync.RWMutex
	//toc:guardedby mu
	n int
	//toc:guardedby mu
	m map[int]int

	unguarded int // no annotation: never flagged
}

// lockedAccess holds the lock across the access: fine.
func (c *counter) lockedAccess() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// rlockedAccess reads under the read lock: fine.
func (c *counter) rlockedAccess() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// bareAccess touches guarded state with no lock at all.
func (c *counter) bareAccess() {
	c.n++ // want `access to n requires mu held`
}

// unlockThenAccess releases the lock and keeps going: the access after
// the Unlock is no longer protected.
func (c *counter) unlockThenAccess() {
	c.mu.Lock()
	c.n = 1
	c.mu.Unlock()
	c.n = 2 // want `access to n requires mu held`
}

// earlyReturnUnlock unlocks only on the branch that leaves the
// function; the fall-through still holds the lock and must not be
// flagged.
func (c *counter) earlyReturnUnlock(stop bool) int {
	c.mu.Lock()
	if stop {
		c.mu.Unlock()
		return 0
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// bumpLocked documents its precondition instead of locking.
//
//toc:locked mu
func (c *counter) bumpLocked() {
	c.n++
	c.m[c.n] = c.n
}

// helperWithoutAnnotation has the same shape but no annotation.
func (c *counter) helperWithoutAnnotation() {
	c.n++ // want `access to n requires mu held`
}

// closureMustLockItself: the literal may run on another goroutine after
// the enclosing function released the lock, so the enclosing Lock does
// not cover it.
func (c *counter) closureMustLockItself() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = 1
	return func() {
		c.n = 2 // want `access to n requires mu held`
	}
}

// closureLocking takes the lock inside the literal: fine.
func (c *counter) closureLocking() func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n = 2
	}
}

// newCounter initializes fields on a value it just created; nothing else
// can see it yet, so no lock is needed.
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	c.m = map[int]int{}
	return c
}

// escapedParam is not a fresh value: the caller may share it.
func initCounter(c *counter) {
	c.n = 0 // want `access to n requires mu held`
}

// unguardedAccess touches only unannotated state: never flagged.
func (c *counter) unguardedAccess() {
	c.unguarded++
}

// supervisor is a channel-driven crash-recovery coordinator: membership
// counters and the panic chain are locked per event — never across the
// blocking channel operations — and spawned worker closures must take
// the lock themselves because they outlive the spawning scope.
type supervisor struct {
	mu sync.Mutex
	//toc:guardedby mu
	live int
	//toc:guardedby mu
	chain []string

	events chan string
	done   chan struct{}
}

// superviseLoop locks around each event's bookkeeping and releases
// before blocking on the next receive: fine.
func (s *supervisor) superviseLoop() {
	for {
		select {
		case <-s.done:
			return
		case ev := <-s.events:
			s.mu.Lock()
			s.live--
			s.chain = append(s.chain, ev)
			dead := s.live == 0
			s.mu.Unlock()
			if dead {
				return
			}
		}
	}
}

// recount lets an access trail past the unlock: no longer protected.
func (s *supervisor) recount(ev string) {
	s.mu.Lock()
	s.live++
	s.chain = append(s.chain, ev)
	s.mu.Unlock()
	s.chain = nil // want `access to chain requires mu held`
}

// spawn's goroutine bodies run after spawn returns, so the enclosing
// lock does not cover them: each closure must lock for itself.
func (s *supervisor) spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live++
	go func() {
		s.mu.Lock()
		s.live--
		s.mu.Unlock()
	}()
	go func() {
		s.live-- // want `access to live requires mu held`
	}()
}

// drainLocked documents its precondition like the supervisor's helpers.
//
//toc:locked mu
func (s *supervisor) drainLocked() []string {
	out := s.chain
	s.chain = nil
	return out
}
