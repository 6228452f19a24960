// Package wgraphtest builds small graphs for tests. Product code hands
// wgraph.FromEdges a canonical list it produced itself; a test wants to
// write its edges down in whatever order reads best. This package is the
// bridge, and it is imported from _test.go files only (CI enforces it).
package wgraphtest

import (
	"math/rand/v2"
	"sort"
	"testing"

	"shoal/internal/wgraph"
)

// Build returns the graph on n nodes holding edges. Endpoints may come in
// either order, and a later triple for the same unordered pair overwrites
// an earlier one. A self-loop or an endpoint outside [0, n) fails the test.
func Build(tb testing.TB, n int, edges ...wgraph.Edge) *wgraph.CSR {
	tb.Helper()
	c, err := build(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// build canonicalizes a copy of edges and hands it to the strict
// wgraph.FromEdges, which is what rejects self-loops and bad ids.
func build(n int, edges []wgraph.Edge) (*wgraph.CSR, error) {
	canon := make([]wgraph.Edge, len(edges))
	for i, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		canon[i] = e
	}
	// Stable, so the last triple of a run of equal pairs is the latest.
	sort.SliceStable(canon, func(i, j int) bool {
		if canon[i].U != canon[j].U {
			return canon[i].U < canon[j].U
		}
		return canon[i].V < canon[j].V
	})
	kept := canon[:0]
	for i, e := range canon {
		if i+1 < len(canon) && canon[i+1].U == e.U && canon[i+1].V == e.V {
			continue
		}
		kept = append(kept, e)
	}
	return wgraph.FromEdges(n, kept)
}

// Random returns a connected random weighted graph: a random spanning
// tree on n nodes, then up to extra more edges (a draw that lands on a
// self-loop is skipped, one that repeats a pair overwrites its weight).
// The draws come from PCG(seed, 17) in a fixed order, so a seed names
// one graph forever — seeded expectations in the suites depend on it.
func Random(n, extra int, seed uint64) *wgraph.CSR {
	rng := rand.New(rand.NewPCG(seed, 17))
	edges := make([]wgraph.Edge, 0, n+extra)
	for v := 1; v < n; v++ {
		u := rng.IntN(v)
		edges = append(edges, wgraph.Edge{U: int32(u), V: int32(v), W: 0.05 + float64(0.9*rng.Float64())})
	}
	for i := 0; i < extra; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		edges = append(edges, wgraph.Edge{U: int32(u), V: int32(v), W: 0.05 + float64(0.9*rng.Float64())})
	}
	c, err := build(n, edges)
	if err != nil {
		panic("wgraphtest: Random drew an invalid edge: " + err.Error())
	}
	return c
}
