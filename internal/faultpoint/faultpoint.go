// Package faultpoint is the fault-injection layer behind the repo's
// crash/resume identity tests: named points in the storage and engine
// code (spill writes, checkpoint renames, the gap between a parameter
// update and its clock publish) call Hit or Err, and a test — or the
// toctrain -faultpoint debug flag — arms an action at a point to kill,
// delay or fail the process exactly there.
//
// Disarmed (the production state) a Hit or Err is one atomic load; no
// registration, no allocation, no lock. Armed actions:
//
//   - crash: terminate the process immediately with CrashExitCode, the
//     moral equivalent of kill -9 at that line — no deferred cleanup
//     runs, which is the point: recovery must cope with whatever a real
//     crash leaves behind (a half-written spill span, an orphaned
//     checkpoint temp file).
//   - delay: sleep for a duration, stretching the window between two
//     events so a racing signal or writer lands inside it.
//   - errorAfter: return an injected *Error from Err on exactly the
//     Nth hit — a one-shot transient fault; hits before and after
//     succeed, so a bounded retry is expected to recover.
//   - errorEvery: return an injected *Error from Err on each hit
//     independently with probability p, drawn from a stream seeded at
//     arm time — deterministic given the seed and the hit sequence.
//     Probability 1 is a permanent fault.
//
// Crash and delay fire on the Nth Hit of their point and on every hit
// past it (N = 1 fires on the first), so a test can let two spill
// writes succeed and kill the third. The error actions fire only at
// Err call sites; a plain Hit still counts toward the point's hit
// counter but never observes the injected error.
package faultpoint

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CrashExitCode is the status a crash action exits with; tests assert on
// it to distinguish an injected kill from an ordinary failure.
const CrashExitCode = 7

// Action is what an armed point does when its hit count is reached.
type Action int

const (
	// Crash exits the process with CrashExitCode, skipping all deferred
	// cleanup — a simulated kill -9.
	Crash Action = iota
	// Delay sleeps for the armed duration on every hit at or past the
	// threshold, stretching the window the point sits in.
	Delay
	// ErrorAfter makes Err return an injected *Error on exactly the Nth
	// hit: a one-shot transient fault that a bounded retry recovers.
	ErrorAfter
	// ErrorEvery makes Err return an injected *Error on each hit
	// independently with the armed probability, from a seeded stream.
	// Probability 1 is a permanent fault.
	ErrorEvery
)

// Error is the failure an error-mode point injects. It is typed so
// callers and tests can unwrap an error chain and distinguish an
// injected fault from a real one.
type Error struct {
	Point string // the armed point that fired
	Hit   int64  // the 1-based hit it fired on
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultpoint: injected error at %s (hit %d)", e.Point, e.Hit)
}

// point is one armed fault.
type point struct {
	action Action
	after  int64 // fire on the Nth hit (1-based); ErrorAfter fires only on it
	delay  time.Duration
	prob   float64    // ErrorEvery firing probability
	rng    *rand.Rand // ErrorEvery's seeded stream
	hits   int64
}

var (
	// armedAny short-circuits Hit when nothing is armed, keeping the
	// production cost of an instrumented line to one atomic load.
	armedAny atomic.Bool

	mu     sync.Mutex
	points map[string]*point

	// exit is swapped out by unit tests that need to observe a crash
	// without dying; everything else really exits.
	exit = os.Exit
)

// install registers p under name; callers hold no locks.
func install(name string, p *point) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*point)
	}
	points[name] = p
	armedAny.Store(true)
}

// arm installs an action at a named point, firing on the Nth hit
// (after <= 0 means the first). Delay actions use d; crash actions
// ignore it. Re-arming a point resets its hit count.
func arm(name string, action Action, after int, d time.Duration) {
	if after <= 0 {
		after = 1
	}
	install(name, &point{action: action, after: int64(after), delay: d})
}

// ArmError installs a one-shot error fault: Err returns an injected
// *Error on exactly the nth hit (n <= 0 means the first) and nil on
// every other hit. Re-arming a point resets its hit count.
func ArmError(name string, after int) {
	if after <= 0 {
		after = 1
	}
	install(name, &point{action: ErrorAfter, after: int64(after)})
}

// ArmErrorEvery installs a probabilistic error fault: each Err hit
// fails independently with probability p, drawn from a stream seeded by
// seed so the failure pattern is reproducible. p >= 1 fails every hit
// (a permanent fault); p <= 0 never fires but still counts hits.
func ArmErrorEvery(name string, p float64, seed int64) {
	install(name, &point{action: ErrorEvery, prob: p, rng: rand.New(rand.NewSource(seed))})
}

// Reset disarms every point. Tests that arm in-process must Reset on
// cleanup or later tests inherit the faults.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	armedAny.Store(false)
}

// Armed reports whether the named point currently has an action
// installed (fired or not). Instrumented code may branch on it to set up
// a more adversarial path — e.g. splitting one write in two so a crash
// can land between the halves — that would be pointless in production.
func Armed(name string) bool {
	if !armedAny.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	_, ok := points[name]
	return ok
}

// HitCount returns how many times the named point has been passed (by
// Hit or Err) since it was armed; disarmed points report 0. Tests and
// stat printers use it to assert an injected fault actually exercised
// its code path.
func HitCount(name string) int64 {
	if !armedAny.Load() {
		return 0
	}
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		return p.hits
	}
	return 0
}

// pass records one hit at name and decides what fires. fired is false
// when the point is disarmed or its condition did not trigger; err is
// non-nil only for error-mode points that fired.
func pass(name string) (fired bool, action Action, d time.Duration, err error) {
	mu.Lock()
	defer mu.Unlock()
	p := points[name]
	if p == nil {
		return false, 0, 0, nil
	}
	p.hits++
	action = p.action
	d = p.delay
	switch p.action {
	case Crash, Delay:
		fired = p.hits >= p.after
	case ErrorAfter:
		fired = p.hits == p.after
	case ErrorEvery:
		fired = p.rng.Float64() < p.prob
	}
	if fired && (p.action == ErrorAfter || p.action == ErrorEvery) {
		err = &Error{Point: name, Hit: p.hits}
	}
	return fired, action, d, err
}

// Hit marks execution passing the named point. Disarmed points (and the
// whole registry when nothing is armed) are no-ops. Error-mode points
// count the hit but never fire here — only Err call sites can observe
// an injected error.
func Hit(name string) {
	if !armedAny.Load() {
		return
	}
	fired, action, d, _ := pass(name)
	if !fired {
		return
	}
	switch action {
	case Crash:
		exit(CrashExitCode)
	case Delay:
		time.Sleep(d)
	}
}

// Err marks execution passing the named error-capable point and returns
// the injected failure, if any. Disarmed points cost one atomic load
// and return nil. Points armed with Crash or Delay behave exactly as at
// a Hit site (and return nil), so one instrumented line serves every
// action.
func Err(name string) error {
	if !armedAny.Load() {
		return nil
	}
	fired, action, d, err := pass(name)
	if !fired {
		return nil
	}
	switch action {
	case Crash:
		exit(CrashExitCode)
	case Delay:
		time.Sleep(d)
	}
	return err
}

// ArmSpec arms points from a comma-separated spec, the grammar of the
// toctrain -faultpoint flag:
//
//	name=crash               crash on the first hit
//	name=crash:3             crash on the third hit
//	name=delay:50ms          sleep 50ms on every hit
//	name=delay:50ms:2        sleep 50ms from the second hit on
//	name=errorAfter:3        inject one error on exactly the third hit
//	name=errorEvery:0.2      each hit errors with probability 0.2 (seed 1)
//	name=errorEvery:0.2:7    same, jitter stream seeded with 7
//
// An empty spec arms nothing and is not an error. Parse errors name the
// offending token so a long spec pinpoints its typo.
func ArmSpec(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return fmt.Errorf("faultpoint: bad spec entry %q (want name=action[:arg[:afterN]])", part)
		}
		fields := strings.Split(rest, ":")
		switch fields[0] {
		case "crash":
			after := 1
			if len(fields) > 2 {
				return fmt.Errorf("faultpoint: bad crash spec %q: extra token %q (want name=crash[:afterN])", part, fields[2])
			}
			if len(fields) == 2 {
				n, err := strconv.Atoi(fields[1])
				if err != nil {
					return fmt.Errorf("faultpoint: bad crash hit count %q in %q: %v", fields[1], part, err)
				}
				after = n
			}
			arm(name, Crash, after, 0)
		case "delay":
			if len(fields) < 2 || len(fields) > 3 {
				return fmt.Errorf("faultpoint: bad delay spec %q (want name=delay:dur[:afterN])", part)
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return fmt.Errorf("faultpoint: bad delay duration %q in %q: %v", fields[1], part, err)
			}
			after := 1
			if len(fields) == 3 {
				n, err := strconv.Atoi(fields[2])
				if err != nil {
					return fmt.Errorf("faultpoint: bad delay hit count %q in %q: %v", fields[2], part, err)
				}
				after = n
			}
			arm(name, Delay, after, d)
		case "errorAfter":
			if len(fields) != 2 {
				return fmt.Errorf("faultpoint: bad errorAfter spec %q (want name=errorAfter:n)", part)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return fmt.Errorf("faultpoint: bad errorAfter hit count %q in %q: %v", fields[1], part, err)
			}
			ArmError(name, n)
		case "errorEvery":
			if len(fields) < 2 || len(fields) > 3 {
				return fmt.Errorf("faultpoint: bad errorEvery spec %q (want name=errorEvery:p[:seed])", part)
			}
			p, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return fmt.Errorf("faultpoint: bad errorEvery probability %q in %q: %v", fields[1], part, err)
			}
			if p < 0 || p > 1 {
				return fmt.Errorf("faultpoint: errorEvery probability %q in %q out of range [0,1]", fields[1], part)
			}
			seed := int64(1)
			if len(fields) == 3 {
				s, err := strconv.ParseInt(fields[2], 10, 64)
				if err != nil {
					return fmt.Errorf("faultpoint: bad errorEvery seed %q in %q: %v", fields[2], part, err)
				}
				seed = s
			}
			ArmErrorEvery(name, p, seed)
		default:
			return fmt.Errorf("faultpoint: unknown action %q in %q", fields[0], part)
		}
	}
	return nil
}
