//go:build !race

package bm25

// raceEnabled reports whether the race detector is compiled in (its twin
// race_on_test.go says true): the detector's own allocations blur a
// byte count taken from runtime.MemStats.
const raceEnabled = false
