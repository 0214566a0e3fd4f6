//go:build race

package core

// raceEnabled reports a race-detector build, in which Recycle poisons
// what it takes back.
const raceEnabled = true
