//go:build race

package bipartite

const raceEnabled = true
