// Package modularity computes Newman–Girvan modularity for weighted
// graphs. The paper uses it as the benchmarking metric for Parallel HAC
// (§2.2, reference [2]) and reports that clusters consistently exceed 0.3.
//
// For a partition C of a weighted graph with total edge weight m:
//
//	Q = Σ_c ( w_in(c)/m − (w_tot(c)/(2m))² )
//
// where w_in(c) is the weight of intra-cluster edges and w_tot(c) the sum
// of weighted degrees of c's nodes. Q ∈ [−1/2, 1); values above ~0.3
// conventionally indicate significant community structure.
package modularity

import (
	"fmt"

	"shoal/internal/wgraph"
)

// Compute returns the modularity of the partition labels over g.
// labels[i] is the cluster of node i; label values are arbitrary.
// Graphs with no edges have undefined modularity and return an error.
//
// Accumulation is deterministic: labels are remapped to dense ids in
// first-appearance order and every sum runs in ascending node/neighbor
// order over the CSR's flat arrays.
func Compute(g *wgraph.CSR, labels []int32) (float64, error) {
	n := g.NumNodes()
	if len(labels) != n {
		return 0, fmt.Errorf("modularity: labels length %d != nodes %d", len(labels), n)
	}
	m := g.TotalWeight()
	if m <= 0 {
		return 0, fmt.Errorf("modularity: graph has no edge weight")
	}

	// Dense remap in first-appearance order.
	dense := make(map[int32]int32, 64)
	id := make([]int32, n)
	for u, l := range labels {
		d, ok := dense[l]
		if !ok {
			d = int32(len(dense))
			dense[l] = d
		}
		id[u] = d
	}
	within := make([]float64, len(dense))
	degree := make([]float64, len(dense))

	offsets, nbrs, wts := g.Adj()
	for u := 0; u < n; u++ {
		lu := id[u]
		degree[lu] += g.WeightedDegree(int32(u))
		for j := offsets[u]; j < offsets[u+1]; j++ {
			if v := nbrs[j]; id[v] == lu && int32(u) < v {
				within[lu] += wts[j]
			}
		}
	}
	var q float64
	for l := range degree {
		q += within[l]/m - float64((degree[l]/(2*m))*(degree[l]/(2*m)))
	}
	return q, nil
}
