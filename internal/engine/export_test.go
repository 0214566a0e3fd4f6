package engine

// LiveWorkers returns the active run's current pool size — initial
// workers, plus joins, minus retirements and unreplaced crashes.
// Between runs it reports the configured size.
func (e *Engine) LiveWorkers() int {
	r := e.running()
	if r == nil {
		return e.workers
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// Clock returns the number of applied positions.
func (l *Loop) Clock() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.clock
}
