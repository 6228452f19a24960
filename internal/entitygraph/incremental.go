package entitygraph

// Incremental entity-graph rebuilds for the daily window slide.
//
// A one-day slide perturbs a small fraction of the click graph, so
// rebuilding the entity graph from scratch wastes almost all of its work.
// A build retains its intermediates — query sets, the candidate pairs
// that can become an edge (those at or above MinSimilarity) with their
// scores, per-side TopK survival bits, the frozen CSR — as an IncState,
// and BuildIncremental hands them back to the same routine (build,
// graph.go) with the slide's dirty items: only the entities whose query
// set really changed are dirty, and only what they reach is recomputed. Output is byte-identical to the from-scratch build; the
// determinism suite in internal/core locks this by gob-comparing whole
// taxonomies at every step of a multi-day slide.
//
// The routine degrades continuously into the full build, which is the
// same code with every entity dirty. One gate short-cuts the tail: when
// more than PatchDensityGate of the retained pairs have a dirty endpoint,
// dropping and merging them back costs more than emitting every row in
// order, so every entity is declared dirty and the previous state is
// released. Delta.FallbackReason names why a build ran dense.

import (
	"context"
	"fmt"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/wgraph"
	"shoal/internal/word2vec"
)

// PatchDensityGate is the share of the retained pairs — the candidates at
// or above MinSimilarity — with a dirty endpoint above which an
// incremental rebuild stops patching and runs with every entity dirty:
// past it, filtering the retained arrays and merging the regenerated
// pairs back costs more than it saves, and the dense run is trivially
// correct.
const PatchDensityGate = 0.5

// IncState is the retained intermediate state of an entity-graph build,
// the input to BuildIncremental on the next window slide. It aliases the
// producing build's arrays (capture is free) and is immutable once
// returned: an incremental build emits a fresh IncState, sharing whatever
// it did not touch.
type IncState struct {
	cfg Config
	n   int
	// emb is the embedding model the scores were computed under (nil:
	// none); the mean vectors themselves live on the EntitySet.
	emb *word2vec.Model
	// querySets[e] is entity e's sorted query set.
	querySets [][]model.QueryID
	// pairs/sims are the candidate pairs at or above MinSimilarity — the
	// only ones that can become an edge — in canonical order (sorted by
	// packed key), with their blended similarities. A pair below the
	// threshold is not retained: a patch regenerates every pair with a
	// dirty endpoint, and one of two clean endpoints keeps its score.
	pairs [][2]int32
	sims  []float64
	// topU/topV mark pairs ranking in the TopK of their U (resp. V)
	// endpoint; a pair is kept iff either bit is set.
	topU, topV []bool
	// kth[u] is node u's K-th best candidate above MinSimilarity, noKth
	// if it has fewer than K (always, when TopK is 0): the next patch
	// re-ranks u only for a changed pair that ranks ahead of it or leaves
	// u's top K.
	kth   []kthBest
	graph *wgraph.CSR
}

// Dense-fallback reasons.
const (
	// FallbackNoState: no usable retained state (first build, or one
	// sized or configured differently).
	FallbackNoState = "no-state"
	// FallbackDirtyPairs: more than PatchDensityGate of the retained pairs
	// have an endpoint whose query set changed.
	FallbackDirtyPairs = "dirty-pairs"
)

// Delta summarizes what one incremental rebuild actually touched — the
// per-rebuild observability payload threaded into core.Build, /api/stats
// and the build trace.
type Delta struct {
	DirtyItems int // items whose query-set membership changed
	// DirtyEntities counts the entities whose query set really changed
	// against the retained state; zero when there was none to compare.
	DirtyEntities int
	// ChangedEdges counts kept edges added, removed or reweighted, and
	// DirtyRows are the CSR rows whose adjacency changed — the rows the
	// patch rewrote, sorted ascending. A dense fallback tracks neither:
	// zero and nil.
	ChangedEdges int
	DirtyRows    []int32
	// RankedNodes counts the nodes that re-ranked their TopK over a
	// non-empty candidate list: on a patch, those a changed pair could
	// cross; on a dense run, every node with a candidate.
	RankedNodes int
	// DenseFallback reports that the build ran with every entity dirty
	// instead of patching; FallbackReason names why (one of the Fallback*
	// constants, empty when the patch ran).
	DenseFallback  bool
	FallbackReason string
}

// BuildIncremental patches the previous build's retained state by the
// dirty-item delta of a window slide, returning a Result byte-identical
// to a from-scratch Build over the same click graph. st may come from
// BuildWithState or a previous BuildIncremental. If st is unusable
// (nil, sized for a different entity set, built under different graph
// semantics or another embedding model) or the delta is too dense, the
// build runs with every entity dirty and Delta.DenseFallback /
// FallbackReason report it. st itself is only read, never written: the
// returned state is a new one. Under a traced context the phases are the
// child spans Build opens.
func BuildIncremental(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config, st *IncState, dirtyItems []model.ItemID) (*Result, *IncState, *Delta, error) {
	return build(ctx, es, clicks, emb, cfg, st, dirtyItems)
}

// patchCSR materializes the next frozen CSR from the kept pairs,
// copying untouched row spans (adjacency, weights and the cached
// weighted-degree floats) wholesale from the previous CSR and refilling
// only dirty rows; with no previous CSR every row must be dirty. The kept
// pairs arrive in canonical (U,V) order, so one ordered pass yields
// ascending neighbor lists, the canonical per-row weighted-degree fold
// order (a row's V-side addends precede its U-side addends) and the
// canonical blocked total-weight summation — every float byte-identical
// to wgraph.FromEdges over the same kept edges
// (TestEmitMatchesCanonicalBuilder).
func patchCSR(prev *wgraph.CSR, n int, pairs [][2]int32, sims []float64, topU, topV []bool, dirty []bool, deg []int32) (*wgraph.CSR, error) {
	var pOff, pNbrs []int32
	var pWts []float64
	if prev != nil {
		pOff, pNbrs, pWts = prev.Adj()
	}

	offsets := make([]int32, n+1)
	var off int32
	for u := 0; u < n; u++ {
		offsets[u] = off
		off += deg[u]
		if !dirty[u] && deg[u] != pOff[u+1]-pOff[u] {
			return nil, fmt.Errorf("entitygraph: clean row %d changed degree %d -> %d", u, pOff[u+1]-pOff[u], deg[u])
		}
	}
	offsets[n] = off

	nbrs := make([]int32, off)
	wts := make([]float64, off)
	wdeg := make([]float64, n)
	// Untouched row runs: one span copy per maximal clean run (the spans
	// are contiguous in both layouts and clean degrees are unchanged).
	for u := 0; u < n; {
		if dirty[u] {
			u++
			continue
		}
		v := u
		for v < n && !dirty[v] {
			v++
		}
		copy(nbrs[offsets[u]:offsets[v]], pNbrs[pOff[u]:pOff[v]])
		copy(wts[offsets[u]:offsets[v]], pWts[pOff[u]:pOff[v]])
		for r := u; r < v; r++ {
			wdeg[r] = prev.WeightedDegree(int32(r))
		}
		u = v
	}
	// Dirty-row fill and the canonical blocked weight total over all kept
	// edges (block boundaries shift with any edge insertion, so the total
	// is never incremental — but it is one streaming add per kept edge).
	cursor := deg // repurpose: fill cursor per dirty row
	for u := 0; u < n; u++ {
		cursor[u] = offsets[u]
	}
	var sums []float64
	partial, bcnt := 0.0, 0
	for i := range pairs {
		if !topU[i] && !topV[i] {
			continue
		}
		u, v := pairs[i][0], pairs[i][1]
		w := sims[i]
		partial += w
		if bcnt++; bcnt == wgraph.WeightSumBlockSize {
			sums = append(sums, partial)
			partial, bcnt = 0, 0
		}
		if dirty[u] {
			p := cursor[u]
			nbrs[p] = v
			wts[p] = w
			cursor[u] = p + 1
			wdeg[u] += w
		}
		if dirty[v] {
			p := cursor[v]
			nbrs[p] = u
			wts[p] = w
			cursor[v] = p + 1
			wdeg[v] += w
		}
	}
	total := wgraph.FoldWeightBlocks(sums)
	if bcnt > 0 {
		total += partial
	}
	return wgraph.FromParts(offsets, nbrs, wts, wdeg, total)
}

// sameGraphSemantics reports whether two configs produce the same graph.
// Workers is execution-only and Shards inert: both are deliberately
// excluded, so retained state never depends on a width.
func sameGraphSemantics(a, b Config) bool {
	return a.Alpha == b.Alpha && a.MinSimilarity == b.MinSimilarity &&
		a.TopK == b.TopK && a.MaxQueryFanout == b.MaxQueryFanout
}
