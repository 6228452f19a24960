package phac

import (
	"fmt"
	"sort"

	"shoal/internal/wgraph"
)

// Edge is a selected locally-maximal edge (U < V).
type Edge struct {
	U, V int32
	Sim  float64
}

// Diffuse runs one diffusion+selection pass over a static graph and
// returns the locally-maximal matching, sorted by (U,V). This is the
// standalone, eager form of Parallel HAC's step 1–2 — every one of the r
// levels materialized, on one goroutine: the oracle Cluster's memoized,
// lazily verified selection is checked against at every merge round
// (TestClusterSelectionMatchesDiffuseEveryRound), the reference the
// vertex-program formulation must reproduce (experiment E9), and the
// subject of E5 (iterations vs. parallelism). Edges below threshold do
// not participate. Every exchange iteration recomputes every node, and
// an iteration that changes nothing ends the loop: every remaining one
// would be the identity.
func Diffuse(c *wgraph.CSR, rounds int, threshold float64) ([]Edge, error) {
	if c.NumNodes() == 0 {
		return nil, fmt.Errorf("phac: empty graph")
	}
	if rounds < 0 {
		return nil, fmt.Errorf("phac: negative diffusion rounds %d", rounds)
	}
	offsets, nbrs, wts := c.Adj()
	n := int32(c.NumNodes())
	know := make([]edgeRef, n)
	for u := int32(0); u < n; u++ {
		best := noEdge
		for j := offsets[u]; j < offsets[u+1]; j++ {
			v, w := nbrs[j], wts[j]
			if w < threshold {
				continue
			}
			cand := mkEdgeRef(u, v, w)
			if better(cand, best) {
				best = cand
			}
		}
		know[u] = best
	}
	next := make([]edgeRef, n)
	for it, changed := 0, true; it < rounds && changed; it++ {
		changed = false
		for u := range know {
			best := know[u]
			for j := offsets[u]; j < offsets[u+1]; j++ {
				if v := nbrs[j]; better(know[v], best) {
					best = know[v]
				}
			}
			next[u] = best
			changed = changed || best != know[u]
		}
		know, next = next, know
	}
	return collectSelected(know, threshold), nil
}

// collectSelected extracts the mutual locally-maximal edges from know.
func collectSelected(know []edgeRef, threshold float64) []Edge {
	var out []Edge
	for u := int32(0); int(u) < len(know); u++ {
		e := know[u]
		if e.U() != u || e.sim < threshold {
			continue
		}
		if int(e.V()) < len(know) && know[e.V()] == e {
			out = append(out, Edge{U: e.U(), V: e.V(), Sim: e.sim})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
