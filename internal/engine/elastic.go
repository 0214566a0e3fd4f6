package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ElasticEvent is one membership change in an elastic schedule: once
// Step updates have been applied, add (Delta > 0) or remove (Delta < 0)
// that many workers.
type ElasticEvent struct {
	Step  int64
	Delta int
}

// ParseElasticSchedule parses the toctrain -elastic grammar: a
// comma-separated list of step:delta entries, where delta is a signed
// worker count —
//
//	200:+4,500:-2
//
// adds four workers after 200 applied updates and removes two after
// 500. The sign may be omitted for joins. Entries are returned sorted
// by step (input order breaks ties); a zero delta, a negative step, or
// a malformed token is an error naming the offending token. An empty
// spec is an empty schedule, not an error.
func ParseElasticSchedule(spec string) ([]ElasticEvent, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var events []ElasticEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		stepTok, deltaTok, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("engine: bad elastic entry %q (want step:±delta)", part)
		}
		step, err := strconv.ParseInt(stepTok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("engine: bad elastic step %q in %q: %v", stepTok, part, err)
		}
		if step < 0 {
			return nil, fmt.Errorf("engine: negative elastic step %q in %q", stepTok, part)
		}
		delta, err := strconv.Atoi(deltaTok)
		if err != nil {
			return nil, fmt.Errorf("engine: bad elastic delta %q in %q: %v", deltaTok, part, err)
		}
		if delta == 0 {
			return nil, fmt.Errorf("engine: zero elastic delta %q in %q", deltaTok, part)
		}
		events = append(events, ElasticEvent{Step: step, Delta: delta})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Step < events[j].Step })
	return events, nil
}

// ElasticHook turns a schedule into an OnStep callback that applies
// each event as training passes its step, chaining to next (which may
// be nil) afterwards. An event at step S fires once S updates have been
// applied — immediately after the update at position S−1 lands, before
// the next one does — so two runs with the same schedule fire at
// identical points in the trajectory. The callback runs on the worker
// that submitted the update, outside the loop's lock, so the
// AddWorkers/RemoveWorkers it calls cannot deadlock against the model
// clone a join takes.
//
// The returned counts are accumulated into the run's Stats by the engine
// (Joined/Departed), so the hook itself keeps no observable state.
func (e *Engine) ElasticHook(events []ElasticEvent, next func(step int64, loss float64)) func(step int64, loss float64) {
	idx := 0
	return func(step int64, loss float64) {
		// step is the just-applied update's index (0-based): step+1 updates
		// have now landed.
		for idx < len(events) && events[idx].Step <= step+1 {
			if d := events[idx].Delta; d > 0 {
				e.AddWorkers(d)
			} else {
				e.RemoveWorkers(-d)
			}
			idx++
		}
		if next != nil {
			next(step, loss)
		}
	}
}
