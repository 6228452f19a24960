//go:build !race

package bipartite

// raceEnabled reports whether the race detector is compiled in (its twin
// race_on_test.go says true): allocation assertions are meaningless under
// it.
const raceEnabled = false
