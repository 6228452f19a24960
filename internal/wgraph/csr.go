// Package wgraph provides the sparse weighted undirected graph shared by
// the clustering stages (sequential HAC, Parallel HAC, modularity). Nodes
// are dense int32 ids; each edge carries a float64 similarity weight.
//
// There is one representation, the immutable CSR: FromEdges builds it
// from a canonical sorted edge list and FromParts adopts arrays a
// builder filled itself. Nothing edits a graph after construction.
package wgraph

import "fmt"

// Edge is a canonical undirected edge (U < V).
type Edge struct {
	U, V int32
	W    float64
}

// CSR is an immutable compressed-sparse-row snapshot of a weighted
// undirected graph. Row u's neighbors are nbrs[offsets[u]:offsets[u+1]]
// in ascending id order, with parallel weights in wts; every undirected
// edge appears in both endpoint rows. Weighted degrees and the total
// edge weight are cached at construction, so all observations are O(1)
// or a single contiguous scan — no per-call allocation anywhere.
//
// A CSR is safe for concurrent use: it is never mutated after FromEdges /
// FromParts return.
type CSR struct {
	offsets []int32
	nbrs    []int32
	wts     []float64
	wdeg    []float64
	total   float64
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
	// sum.go), the shape entitygraph's patch reproduces.
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

// NumNodes returns the number of nodes (including isolated ones).
func (c *CSR) NumNodes() int { return len(c.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (c *CSR) NumEdges() int { return len(c.nbrs) / 2 }

// Adj exposes the raw CSR arrays for allocation-free inner loops
// (offsets has NumNodes()+1 entries). Read-only.
func (c *CSR) Adj() (offsets []int32, nbrs []int32, wts []float64) {
	return c.offsets, c.nbrs, c.wts
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

// Edges returns every edge once, sorted by (U,V).
func (c *CSR) Edges() []Edge {
	out := make([]Edge, 0, c.NumEdges())
	for u := int32(0); int(u) < c.NumNodes(); u++ {
		for j := c.offsets[u]; j < c.offsets[u+1]; j++ {
			if v := c.nbrs[j]; u < v {
				out = append(out, Edge{U: u, V: v, W: c.wts[j]})
			}
		}
	}
	return out
}
