package wgraph

import (
	"fmt"
	"sort"
)

// View is the read-only graph interface shared by every clustering
// consumer (phac, hac, modularity). Both the mutable *Graph builder and
// the frozen *CSR satisfy it, so algorithms accept either; the hot paths
// additionally type-switch to *CSR (see AsCSR) for allocation-free
// neighbor scans.
type View interface {
	NumNodes() int
	NumEdges() int
	Weight(u, v int32) (float64, bool)
	Degree(u int32) int
	WeightedDegree(u int32) float64
	TotalWeight() float64
	Neighbors(u int32) []int32
	ForEachNeighbor(u int32, fn func(v int32, w float64))
	Edges() []Edge
	Components() []int32
}

var (
	_ View = (*Graph)(nil)
	_ View = (*CSR)(nil)
)

// CSR is an immutable compressed-sparse-row snapshot of a weighted
// undirected graph. Row u's neighbors are nbrs[offsets[u]:offsets[u+1]]
// in ascending id order, with parallel weights in wts; every undirected
// edge appears in both endpoint rows. Weighted degrees and the total
// edge weight are cached at construction, so all observations are O(1)
// or a single contiguous scan — no per-call allocation anywhere.
//
// A CSR is safe for concurrent use: it is never mutated after Freeze /
// FromEdges return.
type CSR struct {
	offsets []int32
	nbrs    []int32
	wts     []float64
	wdeg    []float64
	total   float64
}

// Freeze snapshots the builder into its CSR form. The result is
// memoized on g and reused until the next mutation, so repeated freezes
// at a stage boundary are free.
func (g *Graph) Freeze() *CSR {
	if g.frozen != nil {
		return g.frozen
	}
	n := len(g.adj)
	c := &CSR{
		offsets: make([]int32, n+1),
		nbrs:    make([]int32, 0, 2*g.numEdges),
		wts:     make([]float64, 0, 2*g.numEdges),
		wdeg:    make([]float64, n),
	}
	var total weightSummer
	for u := 0; u < n; u++ {
		for _, v := range g.sortedNeighbors(int32(u)) {
			w := g.adj[u][v]
			c.nbrs = append(c.nbrs, v)
			c.wts = append(c.wts, w)
			c.wdeg[u] += w
			if int32(u) < v {
				total.add(w)
			}
		}
		c.offsets[u+1] = int32(len(c.nbrs))
	}
	c.total = total.total()
	g.frozen = c
	return c
}

// FromEdges builds a CSR directly from a canonical edge list: every
// edge once with U < V, sorted by (U, V), no duplicates. This is the
// zero-intermediate path for builders (entitygraph) that already
// produce sorted pairs; a single sequential fill leaves every row
// sorted because for any node x, pairs listing x as V (neighbors < x)
// all precede pairs listing x as U (neighbors > x) in the input order.
func FromEdges(n int, edges []Edge) (*CSR, error) {
	c := &CSR{
		offsets: make([]int32, n+1),
		nbrs:    make([]int32, 2*len(edges)),
		wts:     make([]float64, 2*len(edges)),
		wdeg:    make([]float64, n),
	}
	deg := make([]int32, n)
	// Validation is fused into the counting pass so the construction scans
	// the input exactly once; the first offending index is what is reported.
	for i, e := range edges {
		if e.U >= e.V {
			return nil, fmt.Errorf("wgraph: FromEdges edge %d (%d,%d) not canonical", i, e.U, e.V)
		}
		if e.U < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("wgraph: FromEdges edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, n)
		}
		if i > 0 && (e.U < edges[i-1].U || (e.U == edges[i-1].U && e.V <= edges[i-1].V)) {
			return nil, fmt.Errorf("wgraph: FromEdges edges not sorted at %d", i)
		}
		deg[e.U]++
		deg[e.V]++
	}
	for u := 0; u < n; u++ {
		c.offsets[u+1] = c.offsets[u] + deg[u]
		deg[u] = c.offsets[u] // reuse as fill cursor
	}
	// The total accumulates through the canonical blocked summation (see
	// sum.go), the shape every other holder of the total reproduces.
	var sums []float64
	partial, bcnt := 0.0, 0
	for _, e := range edges {
		c.nbrs[deg[e.U]] = e.V
		c.wts[deg[e.U]] = e.W
		deg[e.U]++
		c.nbrs[deg[e.V]] = e.U
		c.wts[deg[e.V]] = e.W
		deg[e.V]++
		c.wdeg[e.U] += e.W
		c.wdeg[e.V] += e.W
		partial += e.W
		if bcnt++; bcnt == WeightSumBlockSize {
			sums = append(sums, partial)
			partial, bcnt = 0, 0
		}
	}
	if bcnt > 0 {
		sums = append(sums, partial)
	}
	c.total = FoldWeightBlocks(sums)
	return c, nil
}

// FromParts assembles a CSR from prebuilt arrays: offsets of length n+1,
// parallel nbrs/wts with every undirected edge in both endpoint rows in
// ascending id order, per-node weighted degrees, and the total edge
// weight. The arrays are adopted, not copied — the caller must never
// mutate them afterwards. This is the escape hatch for a builder that
// fills the arrays itself (entitygraph's patch copies the previous CSR's
// clean row spans and refills only dirty rows); only cheap structural
// length checks are performed here.
func FromParts(offsets []int32, nbrs []int32, wts []float64, wdeg []float64, total float64) (*CSR, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("wgraph: FromParts needs offsets of length n+1, got 0")
	}
	n := len(offsets) - 1
	if len(wdeg) != n {
		return nil, fmt.Errorf("wgraph: FromParts wdeg length %d != nodes %d", len(wdeg), n)
	}
	if len(nbrs) != len(wts) {
		return nil, fmt.Errorf("wgraph: FromParts nbrs length %d != wts length %d", len(nbrs), len(wts))
	}
	if int(offsets[n]) != len(nbrs) {
		return nil, fmt.Errorf("wgraph: FromParts offsets end %d != entries %d", offsets[n], len(nbrs))
	}
	return &CSR{offsets: offsets, nbrs: nbrs, wts: wts, wdeg: wdeg, total: total}, nil
}

// AsCSR returns g itself when already frozen, otherwise freezes the
// mutable builder; any other View is snapshotted through its edge list.
func AsCSR(g View) *CSR {
	switch v := g.(type) {
	case *CSR:
		return v
	case *Graph:
		return v.Freeze()
	default:
		edges := g.Edges()
		c, err := FromEdges(g.NumNodes(), edges)
		if err != nil {
			panic("wgraph: View returned non-canonical edge list: " + err.Error())
		}
		return c
	}
}

// NumNodes returns the number of nodes (including isolated ones).
func (c *CSR) NumNodes() int { return len(c.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (c *CSR) NumEdges() int { return len(c.nbrs) / 2 }

// Row returns the neighbor ids and weights of u as zero-copy views into
// the CSR arrays. Callers must not modify them.
func (c *CSR) Row(u int32) ([]int32, []float64) {
	if u < 0 || int(u) >= c.NumNodes() {
		return nil, nil
	}
	lo, hi := c.offsets[u], c.offsets[u+1]
	return c.nbrs[lo:hi], c.wts[lo:hi]
}

// Adj exposes the raw CSR arrays for allocation-free inner loops
// (offsets has NumNodes()+1 entries). Read-only.
func (c *CSR) Adj() (offsets []int32, nbrs []int32, wts []float64) {
	return c.offsets, c.nbrs, c.wts
}

// Weight returns the weight of edge (u,v) and whether it exists, by
// binary search within u's sorted row.
func (c *CSR) Weight(u, v int32) (float64, bool) {
	nbrs, wts := c.Row(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	if i < len(nbrs) && nbrs[i] == v {
		return wts[i], true
	}
	return 0, false
}

// Degree returns the number of neighbors of u.
func (c *CSR) Degree(u int32) int {
	nbrs, _ := c.Row(u)
	return len(nbrs)
}

// WeightedDegree returns the cached sum of incident edge weights of u.
func (c *CSR) WeightedDegree(u int32) float64 {
	if u < 0 || int(u) >= len(c.wdeg) {
		return 0
	}
	return c.wdeg[u]
}

// TotalWeight returns the cached sum of all edge weights (each edge
// once).
func (c *CSR) TotalWeight() float64 { return c.total }

// Neighbors returns the neighbor ids of u in ascending order as a
// zero-copy view. Callers must not modify the result.
func (c *CSR) Neighbors(u int32) []int32 {
	nbrs, _ := c.Row(u)
	return nbrs
}

// ForEachNeighbor calls fn for every neighbor of u in ascending id
// order.
func (c *CSR) ForEachNeighbor(u int32, fn func(v int32, w float64)) {
	nbrs, wts := c.Row(u)
	for i, v := range nbrs {
		fn(v, wts[i])
	}
}

// Edges returns every edge once, sorted by (U,V).
func (c *CSR) Edges() []Edge {
	out := make([]Edge, 0, c.NumEdges())
	n := c.NumNodes()
	for u := 0; u < n; u++ {
		nbrs, wts := c.Row(int32(u))
		for i, v := range nbrs {
			if int32(u) < v {
				out = append(out, Edge{U: int32(u), V: v, W: wts[i]})
			}
		}
	}
	return out
}

// Components returns a partition id per node, labeling connected
// components; labels are the smallest node id in each component.
func (c *CSR) Components() []int32 {
	n := c.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		root := int32(s)
		stack = append(stack[:0], root)
		comp[s] = root
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nbrs, _ := c.Row(u)
			for _, v := range nbrs {
				if comp[v] == -1 {
					comp[v] = root
					stack = append(stack, v)
				}
			}
		}
	}
	return comp
}
