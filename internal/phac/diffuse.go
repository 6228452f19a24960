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

// DefaultFrontierDensity is the changed-node fraction of the scanned set
// above which an exchange iteration recomputes every node (dense)
// instead of only the frontier. Below it, the scatter+span-copy overhead
// of pruning is provably cheaper than the skipped neighbor scans.
// Exported so callers reporting the resolved configuration (core.Build,
// /api/stats) can name the default without duplicating the constant.
const DefaultFrontierDensity = 0.25

// Diffuse runs one diffusion+selection pass over a static graph and
// returns the locally-maximal matching, sorted by (U,V). This is the
// standalone, eager form of Parallel HAC's step 1–2 — every one of the r
// levels materialized, on one goroutine: the oracle Cluster's memoized,
// lazily verified selection is checked against at every merge round
// (TestClusterSelectionMatchesDiffuseEveryRound), the reference the
// vertex-program formulation must reproduce (experiment E9), and the
// subject of E5 (iterations vs. parallelism). Edges below threshold do
// not participate. Late exchange iterations are frontier-pruned: a node
// is recomputed only when a neighbor's known edge changed in the
// previous iteration, the stable majority moves by whole-span copy, and
// an empty frontier ends the loop — all without changing a single output
// byte (see TestFrontierMatchesDense).
func Diffuse(g *wgraph.CSR, rounds int, threshold float64) ([]Edge, error) {
	return diffuse(g, rounds, threshold, 0)
}

// diffuse is Diffuse with an explicit frontier density (0 = default,
// negative = pruning disabled; the dense/pruned property tests pin the
// two byte-identical).
func diffuse(c *wgraph.CSR, rounds int, threshold float64, density float64) ([]Edge, error) {
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
	know = exchangeRows(offsets, nbrs, know, make([]edgeRef, n), rounds, density)
	return collectSelected(know, threshold), nil
}

// exchangeRows runs `rounds` max-exchange iterations over all rows and
// returns the buffer holding the final known edges. Iteration 1 is always
// dense (everything just changed during init); iteration t+1 recomputes
// only rows with a neighbor whose know entry changed in iteration t —
// every skipped row's result is provably identical (its own entry already
// dominates its unchanged neighborhood by the monotonicity of
// max-exchange), so the output is byte-identical to the dense loop. An
// empty frontier ends the loop early: every remaining iteration would be
// the identity.
func exchangeRows(offsets, nbrs []int32, know, next []edgeRef, rounds int, density float64) []edgeRef {
	if rounds == 0 {
		return know
	}
	if density == 0 {
		density = DefaultFrontierDensity
	}
	n := len(know)
	chMark := make([]uint32, n)
	afMark := make([]uint32, n)
	prev := -1 // changed count of the previous iteration; -1 forces dense
	var epoch uint32
	for it := 0; it < rounds; it++ {
		if prev == 0 {
			break
		}
		epoch++
		if prev < 0 || density < 0 || float64(prev) > density*float64(n) {
			prev = denseExchangeRows(offsets, nbrs, know, next, chMark, epoch)
		} else {
			scatterRows(offsets, nbrs, chMark, afMark, epoch)
			prev = prunedExchangeRows(offsets, nbrs, know, next, chMark, afMark, epoch)
		}
		know, next = next, know
	}
	return know
}

// denseExchangeRows recomputes every row, stamping chMark for rows whose
// known edge changed and returning the change count.
func denseExchangeRows(offsets, nbrs []int32, know, next []edgeRef, chMark []uint32, epoch uint32) int {
	cnt := 0
	for u := range know {
		best := know[u]
		for j := offsets[u]; j < offsets[u+1]; j++ {
			if v := nbrs[j]; better(know[v], best) {
				best = know[v]
			}
		}
		next[u] = best
		if best != know[u] {
			chMark[u] = epoch
			cnt++
		}
	}
	return cnt
}

// scatterRows marks the neighbors of every row that changed in the
// previous iteration (chMark == epoch-1) for recomputation.
func scatterRows(offsets, nbrs []int32, chMark, afMark []uint32, epoch uint32) {
	for u := range chMark {
		if chMark[u] != epoch-1 {
			continue
		}
		for j := offsets[u]; j < offsets[u+1]; j++ {
			afMark[nbrs[j]] = epoch
		}
	}
}

// prunedExchangeRows whole-span-copies the stable majority and
// recomputes only the marked rows.
func prunedExchangeRows(offsets, nbrs []int32, know, next []edgeRef, chMark, afMark []uint32, epoch uint32) int {
	copy(next, know)
	cnt := 0
	for u := range know {
		if afMark[u] != epoch {
			continue
		}
		best := know[u]
		for j := offsets[u]; j < offsets[u+1]; j++ {
			if v := nbrs[j]; better(know[v], best) {
				best = know[v]
			}
		}
		if best != know[u] {
			next[u] = best
			chMark[u] = epoch
			cnt++
		}
	}
	return cnt
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
