//go:build !race

package bm25

// raceEnabled reports whether the race detector is compiled in (its twin
// race_on_test.go says true): allocation assertions are meaningless under
// it (sync.Pool drops items randomly there to surface races).
const raceEnabled = false
