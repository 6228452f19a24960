package entitygraph

// Incremental entity-graph rebuilds for the daily window slide.
//
// A one-day slide perturbs a small fraction of the click graph, so
// rebuilding the entity graph from scratch wastes almost all of its work.
// BuildWithState retains the full build's intermediates — candidate pairs
// with counts and scores, per-side TopK survival bits, the query→entity
// index, the frozen CSR — and BuildIncremental patches them:
//
//  1. dirty items → dirty entities; recompute only their query sets and
//     drop false positives (membership flagged but set unchanged),
//  2. the symmetric differences yield the changed queries; each changed
//     query's old and new entity lists produce signed candidate-pair
//     deltas (fanout-cap flips fall out naturally: a query whose list is
//     unchanged keeps its cap status),
//  3. a sort-merge walk folds the deltas into the retained pair arrays,
//     rescoring only pairs that were delta-touched or have a dirty
//     endpoint (everything else copies its score bit-for-bit — identical
//     integer inputs through the shared scorePair expression),
//  4. TopK is re-ranked only for nodes incident to an added, removed or
//     rescored pair, through the same rankNode as the full build,
//  5. the next frozen CSR is patched row-wise: untouched row spans are
//     copied wholesale from the previous CSR (including their cached
//     weighted-degree floats), only dirty rows are refilled, and the
//     canonical blocked weight total is recomputed over the kept edges in
//     (U,V) order — the exact summation shape of shard.FromEdges.
//
// Output is byte-identical to the from-scratch build; the determinism
// suite in internal/core locks this by gob-comparing whole taxonomies at
// every step of a multi-day slide. When the changed fraction of rows (or
// of entities) exceeds PatchDensityGate, or the pair replay of step 2
// would emit more signed entries than the full build has candidate
// pairs, the patch degenerates, so the build falls back to the dense
// path — a full BuildWithState — which is trivially correct. The gates
// are checked in order of cost, each before the work it makes pointless;
// Delta.FallbackReason names the one that fired.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/shard"
	"shoal/internal/wgraph"
	"shoal/internal/word2vec"
)

// PatchDensityGate is the changed-fraction threshold above which an
// incremental rebuild abandons patching and re-runs the full build: when
// more than this fraction of entities (or of CSR rows) is dirty, the
// delta machinery costs more than it saves and the dense path is both
// faster and trivially correct.
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
	// assoc is the sorted packed (query<<32 | entity) association list —
	// the query→entity index; a query's entities are one contiguous run.
	assoc []uint64
	// pairs/counts/sims are the candidate pairs (canonical, sorted by
	// packed key) with shared-query counts and blended similarities.
	pairs  [][2]int32
	counts []int32
	sims   []float64
	// topU/topV mark pairs ranking in the TopK of their U (resp. V)
	// endpoint; a pair is kept iff either bit is set.
	topU, topV []bool
	graph      *shard.CSR
}

// Dense-fallback reasons, in the order BuildIncremental checks them.
const (
	// FallbackNoState: no usable retained state (first build, or one
	// sized or configured differently).
	FallbackNoState = "no-state"
	// FallbackDirtyEntities: more than PatchDensityGate of the entities
	// own a dirty item.
	FallbackDirtyEntities = "dirty-entities"
	// FallbackPairDeltaVolume: replaying the changed queries would emit
	// (and sort) more signed pair entries than the previous build has
	// candidate pairs — the delta costs more than the build it avoids.
	FallbackPairDeltaVolume = "pair-delta-volume"
	// FallbackDirtyRows: the patch was computed, but rewrites more than
	// PatchDensityGate of the CSR rows.
	FallbackDirtyRows = "dirty-rows"
)

// Delta summarizes what one incremental rebuild actually touched — the
// per-rebuild observability payload threaded into core.Build, /api/stats
// and the build trace.
type Delta struct {
	DirtyItems    int // items whose query-set membership changed
	DirtyEntities int // entities whose query set really changed
	// ChangedPairs counts candidate pairs added, removed or
	// count-shifted, ChangedEdges kept edges added, removed or
	// reweighted. Both come out of the pair replay: a fallback that fires
	// before it (every reason but dirty-rows) leaves them zero.
	ChangedPairs int
	ChangedEdges int
	// DirtyRows are the CSR rows whose adjacency changed — the rows the
	// patch rewrote. Sorted ascending; nil on a dense fallback, which
	// does not track rows.
	DirtyRows []int32
	// DenseFallback reports that a full rebuild ran instead of the patch;
	// FallbackReason names the gate that decided it (one of the Fallback*
	// constants, empty when the patch ran).
	DenseFallback  bool
	FallbackReason string
}

// pairDelta is one signed candidate-pair count adjustment.
type pairDelta struct {
	key uint64 // packed canonical pair, U<<32 | V
	d   int32
}

// BuildIncremental patches the previous build's retained state by the
// dirty-item delta of a window slide, returning a Result byte-identical
// to a from-scratch Build over the same click graph. st may come from
// BuildWithState or a previous BuildIncremental. If st is unusable
// (nil, sized for a different entity set, built under different graph
// semantics or another embedding model) or the delta is too dense, the full
// build runs instead and Delta.DenseFallback / FallbackReason report it.
// st itself is only read, never written: the returned state is a new one.
// Under a traced context the patch's phases are child spans of the
// caller's (dirty-map, replay, merge, rank, patch), followed by the full
// build's when a gate fires.
func BuildIncremental(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config, st *IncState, dirtyItems []model.ItemID) (*Result, *IncState, *Delta, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, nil, err
	}
	d := &Delta{DirtyItems: len(dirtyItems)}
	ph := phases{parent: obs.SpanFromContext(ctx)}
	defer ph.end()
	full := func(reason string) (*Result, *IncState, *Delta, error) {
		ph.end()
		// The full build reads nothing of the previous state: let go of
		// it first, so a caller that handed its only reference over does
		// not hold two builds' arrays through the replacement's peak.
		st = nil
		res, nst, err := BuildWithState(ctx, es, clicks, emb, cfg)
		d.DenseFallback, d.FallbackReason = true, reason
		d.DirtyRows = nil
		return res, nst, d, err
	}
	if es == nil || st == nil || st.n != len(es.Entities) || st.emb != emb ||
		!sameGraphSemantics(st.cfg, cfg) {
		return full(FallbackNoState)
	}
	n := st.n

	sp := ph.next("dirty-map")
	// Dirty items → dirty entities.
	entDirty := make([]bool, n)
	var dirtyEnts []int32
	for _, it := range dirtyItems {
		if it < 0 || int(it) >= len(es.ItemEntity) {
			continue // item outside the entity set (e.g. unknown id)
		}
		e := int32(es.ItemEntity[it])
		if !entDirty[e] {
			entDirty[e] = true
			dirtyEnts = append(dirtyEnts, e)
		}
	}
	slices.Sort(dirtyEnts)
	if float64(len(dirtyEnts)) > PatchDensityGate*float64(n) {
		return full(FallbackDirtyEntities)
	}

	// Recompute dirty entities' query sets (through the full build's
	// routine) and drop false positives: an item-level membership
	// change that another member item masks leaves the entity set equal.
	newQS := make(map[int32][]model.QueryID, len(dirtyEnts))
	realDirty := make([]int32, 0, len(dirtyEnts))
	var qbuf []model.QueryID
	for _, e := range dirtyEnts {
		qs := entityQuerySet(&es.Entities[e], clicks, &qbuf)
		if slices.Equal(qs, st.querySets[e]) {
			entDirty[e] = false
			continue
		}
		newQS[e] = qs
		realDirty = append(realDirty, e)
	}
	d.DirtyEntities = len(realDirty)
	sp.SetAttr("dirtyEntities", len(realDirty))
	if len(realDirty) == 0 {
		// Nothing really moved: the previous build is the current build.
		return &Result{Set: es, Graph: st.graph, QuerySets: st.querySets}, st, d, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	// Changed queries: per-query join/leave lists from the symmetric
	// differences, plus the packed association removals/additions for the
	// new query→entity index. realDirty ascends, so per-query lists do too.
	type qdelta struct{ leaves, joins []int32 }
	qd := make(map[model.QueryID]*qdelta)
	get := func(q model.QueryID) *qdelta {
		dq := qd[q]
		if dq == nil {
			dq = &qdelta{}
			qd[q] = dq
		}
		return dq
	}
	var assocRem, assocAdd []uint64
	for _, e := range realDirty {
		old, nw := st.querySets[e], newQS[e]
		i, j := 0, 0
		for i < len(old) || j < len(nw) {
			switch {
			case j >= len(nw) || (i < len(old) && old[i] < nw[j]):
				get(old[i]).leaves = append(get(old[i]).leaves, e)
				assocRem = append(assocRem, packAssoc(old[i], e))
				i++
			case i >= len(old) || nw[j] < old[i]:
				get(nw[j]).joins = append(get(nw[j]).joins, e)
				assocAdd = append(assocAdd, packAssoc(nw[j], e))
				j++
			default:
				i++
				j++
			}
		}
	}

	sp = ph.next("replay")
	// Signed candidate-pair deltas: each changed query retracts its old
	// C(k,2) contribution and contributes its new one, each side subject
	// to the same fanout cap as the full build. Queries not in qd have
	// identical entity lists, hence identical contributions — including
	// their cap status.
	var pdCap int
	for q, dq := range qd {
		k := len(assocEntities(st.assoc, q))
		pdCap += k*(k-1)/2 + (k+len(dq.joins))*(k+len(dq.joins)-1)/2
	}
	// Work-based gate: the replay emits, sorts and merges up to pdCap
	// signed entries, the full build handles len(st.pairs) candidate pairs
	// once. Past parity the replay loses — and a delta that large all but
	// certainly trips the dirty-rows gate afterwards anyway.
	if pdCap > len(st.pairs) {
		return full(FallbackPairDeltaVolume)
	}
	pd := make([]pairDelta, 0, pdCap)
	for q, dq := range qd {
		old := assocEntities(st.assoc, q)
		nw := applyQDelta(old, dq.leaves, dq.joins)
		if !(cfg.MaxQueryFanout > 0 && len(old) > cfg.MaxQueryFanout) {
			pd = emitPairs(pd, old, -1)
		}
		if !(cfg.MaxQueryFanout > 0 && len(nw) > cfg.MaxQueryFanout) {
			pd = emitPairs(pd, nw, +1)
		}
	}
	// Order of equal keys is irrelevant (the run-length sum below is
	// commutative), so any unstable key sort yields the same pd.
	slices.SortFunc(pd, func(a, b pairDelta) int { return cmp.Compare(a.key, b.key) })
	// Run-length sum equal keys, dropping zero nets.
	w := 0
	for i := 0; i < len(pd); {
		k, s := pd[i].key, int32(0)
		for ; i < len(pd) && pd[i].key == k; i++ {
			s += pd[i].d
		}
		if s != 0 {
			pd[w] = pairDelta{key: k, d: s}
			w++
		}
	}
	pd = pd[:w]
	sp.SetAttr("pairDeltas", len(pd))
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	sp = ph.next("merge")
	// Updated query sets (copy-on-write: the previous build's Result still
	// aliases the old slice).
	qsNew := make([][]model.QueryID, n)
	copy(qsNew, st.querySets)
	for e, qs := range newQS {
		qsNew[e] = qs
	}

	// Sort-merge the deltas into the retained pair arrays. Pairs that are
	// delta-touched or have a dirty endpoint are rescored below; all
	// others copy their score verbatim (same integer inputs through the
	// same expression ⇒ same bits, so copying is exact and cheaper).
	P := len(st.pairs)
	newPairs := make([][2]int32, P+len(pd))
	newCounts := make([]int32, P+len(pd))
	newSims := make([]float64, P+len(pd))
	nTopU := make([]bool, P+len(pd))
	nTopV := make([]bool, P+len(pd))
	oldIdx := make([]int32, P+len(pd))
	touched := make([]bool, P+len(pd))
	rankDirtyB := make([]bool, n)
	csrDirtyB := make([]bool, n)
	markRank := func(u, v int32) {
		rankDirtyB[u] = true
		rankDirtyB[v] = true
	}
	pairKey := func(p [2]int32) uint64 {
		return uint64(uint32(p[0]))<<32 | uint64(uint32(p[1]))
	}
	di, w := 0, 0
	for i := 0; ; {
		var key uint64
		if i < P {
			key = pairKey(st.pairs[i])
		}
		for di < len(pd) && (i == P || pd[di].key < key) {
			// Brand-new candidate pair.
			u, v := int32(pd[di].key>>32), int32(pd[di].key&0xffffffff)
			if pd[di].d < 0 {
				return nil, nil, nil, fmt.Errorf("entitygraph: incremental delta removes unknown pair (%d,%d)", u, v)
			}
			d.ChangedPairs++
			newPairs[w] = [2]int32{u, v}
			newCounts[w] = pd[di].d
			oldIdx[w] = -1
			touched[w] = true
			w++
			markRank(u, v)
			di++
		}
		if i == P {
			break
		}
		if di < len(pd) && pd[di].key == key {
			u, v := st.pairs[i][0], st.pairs[i][1]
			c := st.counts[i] + pd[di].d
			di++
			if c < 0 {
				return nil, nil, nil, fmt.Errorf("entitygraph: incremental pair (%d,%d) count underflow", u, v)
			}
			d.ChangedPairs++
			if c == 0 {
				// Pair vanished. Its endpoints re-rank; if it was a kept
				// edge, both CSR rows change too.
				markRank(u, v)
				if st.topU[i] || st.topV[i] {
					d.ChangedEdges++
					csrDirtyB[u] = true
					csrDirtyB[v] = true
				}
				i++
				continue
			}
			newPairs[w] = st.pairs[i]
			newCounts[w] = c
			nTopU[w] = st.topU[i]
			nTopV[w] = st.topV[i]
			oldIdx[w] = int32(i)
			touched[w] = true
			w++
			i++
			continue
		}
		// Maximal delta-free run: every pair up to the next delta key
		// copies verbatim, so the five retained arrays move as block
		// copies and only oldIdx/touched fill per element.
		j := P
		if di < len(pd) {
			nk := pd[di].key
			for j = i + 1; j < P && pairKey(st.pairs[j]) < nk; j++ {
			}
		}
		copy(newPairs[w:], st.pairs[i:j])
		copy(newCounts[w:], st.counts[i:j])
		copy(newSims[w:], st.sims[i:j])
		copy(nTopU[w:], st.topU[i:j])
		copy(nTopV[w:], st.topV[i:j])
		for k := i; k < j; k++ {
			oldIdx[w] = int32(k)
			touched[w] = entDirty[st.pairs[k][0]] || entDirty[st.pairs[k][1]]
			w++
		}
		i = j
	}
	newPairs = newPairs[:w]
	newCounts = newCounts[:w]
	newSims = newSims[:w]
	nTopU = nTopU[:w]
	nTopV = nTopV[:w]
	oldIdx = oldIdx[:w]
	touched = touched[:w]

	// Rescore the touched pairs; a score that actually moved re-ranks
	// both endpoints (this also catches MinSimilarity boundary crossings:
	// an unchanged score cannot change filter status).
	means, rescored := es.meanVectors(emb), 0
	for i := range newPairs {
		if !touched[i] {
			continue
		}
		rescored++
		u, v := newPairs[i][0], newPairs[i][1]
		s := scorePair(qsNew, means, emb != nil, cfg.Alpha, u, v, newCounts[i])
		newSims[i] = s
		if oi := oldIdx[i]; oi < 0 || s != st.sims[oi] {
			markRank(u, v)
		}
	}
	sp.SetAttr("rescored", rescored)
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	sp = ph.next("rank")
	// Re-rank only the dirty nodes, through the full build's rankNode.
	// Their incidence lists are built by counting, like the full build's
	// rev: one flat array of pair indices, node u's at
	// inc[incOff[u]:incOff[u+1]] (empty for a clean node). They are
	// collected unfiltered so stale side bits of pairs that dropped below
	// MinSimilarity get cleared too.
	incOff := make([]int32, n+1)
	for _, p := range newPairs {
		if rankDirtyB[p[0]] {
			incOff[p[0]+1]++
		}
		if rankDirtyB[p[1]] {
			incOff[p[1]+1]++
		}
	}
	for u := 0; u < n; u++ {
		incOff[u+1] += incOff[u]
	}
	inc := make([]int32, incOff[n])
	next := slices.Clone(incOff[:n])
	for i, p := range newPairs {
		if rankDirtyB[p[0]] {
			inc[next[p[0]]] = int32(i)
			next[p[0]]++
		}
		if rankDirtyB[p[1]] {
			inc[next[p[1]]] = int32(i)
			next[p[1]]++
		}
	}
	var lst []scored
	nodesRanked := 0
	for u := int32(0); int(u) < n; u++ {
		if !rankDirtyB[u] {
			continue
		}
		nodesRanked++
		lst = lst[:0]
		for _, pi := range inc[incOff[u]:incOff[u+1]] {
			if newPairs[pi][0] == u {
				nTopU[pi] = false
			} else {
				nTopV[pi] = false
			}
			if newSims[pi] < cfg.MinSimilarity {
				continue
			}
			other := newPairs[pi][0]
			if other == u {
				other = newPairs[pi][1]
			}
			lst = append(lst, scored{other: other, sim: newSims[pi], idx: int(pi)})
		}
		rankNode(lst, u, newPairs, nTopU, nTopV, cfg.TopK)
	}
	sp.SetAttr("nodesRanked", nodesRanked)

	sp = ph.next("patch")
	// Kept-edge changes → dirty CSR rows; the same pass counts the next
	// CSR's row degrees so patchCSR never re-derives keep status.
	deg := make([]int32, n)
	for i := range newPairs {
		oi := oldIdx[i]
		oldKept := oi >= 0 && (st.topU[oi] || st.topV[oi])
		kn := nTopU[i] || nTopV[i]
		if kn {
			deg[newPairs[i][0]]++
			deg[newPairs[i][1]]++
		}
		if kn != oldKept || (kn && newSims[i] != st.sims[oi]) {
			d.ChangedEdges++
			csrDirtyB[newPairs[i][0]] = true
			csrDirtyB[newPairs[i][1]] = true
		}
	}
	var dirtyRows []int32
	for u := int32(0); int(u) < n; u++ {
		if csrDirtyB[u] {
			dirtyRows = append(dirtyRows, u)
		}
	}
	d.DirtyRows = dirtyRows
	sp.SetAttr("dirtyRows", len(dirtyRows))
	if float64(len(dirtyRows)) > PatchDensityGate*float64(n) {
		return full(FallbackDirtyRows)
	}

	// Updated association index (single merge: old minus removals, plus
	// additions, all three sorted).
	slices.Sort(assocRem)
	slices.Sort(assocAdd)
	newAssoc := mergeAssoc(st.assoc, assocRem, assocAdd)

	g := st.graph
	if len(dirtyRows) > 0 {
		var err error
		g, err = patchCSR(st.graph, n, newPairs, newSims, nTopU, nTopV, csrDirtyB, deg, cfg.Shards)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	nst := &IncState{
		cfg:       st.cfg,
		n:         n,
		emb:       emb,
		querySets: qsNew,
		assoc:     newAssoc,
		pairs:     newPairs,
		counts:    newCounts,
		sims:      newSims,
		topU:      nTopU,
		topV:      nTopV,
		graph:     g,
	}
	return &Result{Set: es, Graph: g, QuerySets: qsNew}, nst, d, nil
}

// patchCSR materializes the next frozen sharded CSR from the kept pairs,
// copying untouched row spans (adjacency, weights and the cached
// weighted-degree floats) wholesale from the previous CSR and refilling
// only dirty rows. The kept pairs arrive in canonical (U,V) order, so one
// ordered pass yields ascending neighbor lists, the canonical per-row
// weighted-degree fold order (a row's V-side addends precede its U-side
// addends) and the canonical blocked total-weight summation — every float
// byte-identical to shard.FromEdges over the same kept edges.
func patchCSR(prevG *shard.CSR, n int, pairs [][2]int32, sims []float64, topU, topV []bool, dirty []bool, deg []int32, shards int) (*shard.CSR, error) {
	prev := prevG.BaseCSR()
	pOff, pNbrs, pWts := prev.Adj()

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
	return shard.CSRFromParts(offsets, nbrs, wts, wdeg, total, shards)
}

// sameGraphSemantics reports whether two configs produce the same graph
// (Workers is execution-only and deliberately excluded).
func sameGraphSemantics(a, b Config) bool {
	return a.Alpha == b.Alpha && a.MinSimilarity == b.MinSimilarity &&
		a.TopK == b.TopK && a.MaxQueryFanout == b.MaxQueryFanout &&
		a.Shards == b.Shards
}

func packAssoc(q model.QueryID, e int32) uint64 {
	return uint64(uint32(q))<<32 | uint64(uint32(e))
}

// assocEntities returns the ascending entity run of query q in the packed
// association index.
func assocEntities(assoc []uint64, q model.QueryID) []int32 {
	lo := sort.Search(len(assoc), func(i int) bool { return assoc[i] >= uint64(uint32(q))<<32 })
	hi := sort.Search(len(assoc), func(i int) bool { return assoc[i] >= (uint64(uint32(q))+1)<<32 })
	out := make([]int32, 0, hi-lo)
	for _, a := range assoc[lo:hi] {
		out = append(out, int32(a&0xffffffff))
	}
	return out
}

// applyQDelta returns old minus leaves plus joins, all ascending.
func applyQDelta(old, leaves, joins []int32) []int32 {
	out := make([]int32, 0, len(old)+len(joins))
	li, ji := 0, 0
	for _, e := range old {
		for ji < len(joins) && joins[ji] < e {
			out = append(out, joins[ji])
			ji++
		}
		if li < len(leaves) && leaves[li] == e {
			li++
			continue
		}
		out = append(out, e)
	}
	out = append(out, joins[ji:]...)
	return out
}

// emitPairs appends every C(len(ents),2) canonical pair of the ascending
// entity list with the given sign.
func emitPairs(pd []pairDelta, ents []int32, sign int32) []pairDelta {
	for i := 0; i < len(ents); i++ {
		for j := i + 1; j < len(ents); j++ {
			key := uint64(uint32(ents[i]))<<32 | uint64(uint32(ents[j]))
			pd = append(pd, pairDelta{key: key, d: sign})
		}
	}
	return pd
}

// mergeAssoc returns old minus rem plus add (all sorted ascending; rem is
// a subset of old, add is disjoint from old\rem).
func mergeAssoc(old, rem, add []uint64) []uint64 {
	out := make([]uint64, 0, len(old)-len(rem)+len(add))
	ri, ai := 0, 0
	for _, x := range old {
		for ai < len(add) && add[ai] < x {
			out = append(out, add[ai])
			ai++
		}
		if ri < len(rem) && rem[ri] == x {
			ri++
			continue
		}
		out = append(out, x)
	}
	out = append(out, add[ai:]...)
	return out
}
