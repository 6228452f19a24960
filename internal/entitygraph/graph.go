package entitygraph

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/wgraph"
	"shoal/internal/word2vec"
)

// Config controls entity-graph construction.
type Config struct {
	// Alpha is the Eq. 3 blend weight of query-driven similarity; the
	// paper uses 0.7.
	Alpha float64
	// MinSimilarity filters out edges with blended similarity below this
	// value — the sparsification of §2.2 Challenge 1.
	MinSimilarity float64
	// TopK keeps at most K strongest edges per entity ("one item entity
	// should have only a few neighbor entities"). 0 disables the cap.
	TopK int
	// MaxQueryFanout skips queries associated with more than this many
	// entities during candidate generation; 0 disables the cap.
	MaxQueryFanout int
	// Shards is read by nothing, written only by the frozen
	// benchmark/replay.go: the build emits one CSR, not a partition of
	// one. The next benchmark-archetype PR deletes it.
	Shards int
}

// DefaultConfig mirrors the paper's demonstration settings.
func DefaultConfig() Config {
	return Config{
		Alpha:          0.7,
		MinSimilarity:  0.35,
		TopK:           10,
		MaxQueryFanout: 400,
	}
}

func (c *Config) validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("entitygraph: Alpha must be in [0,1], got %f", c.Alpha)
	}
	if c.MinSimilarity < 0 || c.MinSimilarity > 1 {
		return fmt.Errorf("entitygraph: MinSimilarity must be in [0,1], got %f", c.MinSimilarity)
	}
	if c.TopK < 0 || c.MaxQueryFanout < 0 {
		return fmt.Errorf("entitygraph: TopK and MaxQueryFanout must be non-negative")
	}
	return nil
}

// Result bundles the entity graph with the entity metadata it was built
// over. The wgraph node ids equal entity ids. The graph is emitted
// directly in frozen CSR form — the build's sorted pair arrays are its
// natural input — so downstream clustering never touches a map.
type Result struct {
	Set   *EntitySet
	Graph *wgraph.CSR
	// QuerySets[e] is the sorted query-id set of entity e, the Qu of
	// Eq. 1. Exposed for description matching (§2.3).
	QuerySets [][]model.QueryID
}

// Build constructs the item entity graph:
//
//  1. union each entity's member-item query sets (from the bipartite
//     click graph),
//  2. enumerate candidate entity pairs through shared queries,
//  3. score each pair as it is found — Eq. 1 (Jaccard), Eq. 2 (embedding
//     similarity via the trained word2vec model; entities with no known
//     words fall back to Sq), blended with Eq. 3 — and keep it only at or
//     above MinSimilarity,
//  4. keep the TopK strongest edges per node.
//
// The embedding model may be nil, in which case Alpha is effectively 1.
// Cancellation is checked between construction phases and inside their
// loops. Under a traced context each phase is a child span of the
// caller's (query-sets, candidates, rank, emit).
func Build(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config) (*Result, error) {
	res, _, _, err := build(ctx, es, clicks, emb, cfg, nil, nil)
	return res, err
}

// BuildWithState is Build, additionally returning the retained
// intermediate state (query sets, the candidate pairs at or above
// MinSimilarity with their scores, TopK side bits) that BuildIncremental
// patches on the next window slide.
// The state aliases the build's own arrays, so capturing it is free.
func BuildWithState(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config) (*Result, *IncState, error) {
	res, st, _, err := build(ctx, es, clicks, emb, cfg, nil, nil)
	return res, st, err
}

// build is the one entity-graph routine: the four steps of Build,
// restricted to what a set of dirty entities can reach. st is the
// previous build's retained state and dirtyItems the items whose query-set
// membership changed since; with no usable st every entity is dirty, and
// that is the full build. What no dirty entity reaches is carried over: a
// clean entity's query set; the score and TopK verdicts of a pair of
// two clean entities none of whose queries crossed the fan-out cap (same
// integer inputs through the same expression ⇒ same bits, so copying is
// exact); the ranking of a node whose top K no changed pair can cross —
// none of its retained top-K pairs vanished or changed score, and no new
// or re-scored pair above MinSimilarity ranks ahead of its previous K-th
// candidate (with fewer than K candidates, any above-min one would) — for
// then its top K is the same pairs; the CSR span of a row none of
// whose kept edges changed. Whatever is recomputed comes out of the same
// loops whichever entities are dirty, so a patch cannot drift from a full
// build. st is only read: the returned state is a new one, sharing what it
// did not touch.
func build(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config, st *IncState, dirtyItems []model.ItemID) (*Result, *IncState, *Delta, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	if es == nil || len(es.Entities) == 0 {
		return nil, nil, nil, fmt.Errorf("entitygraph: empty entity set")
	}
	n := len(es.Entities)
	d := &Delta{DirtyItems: len(dirtyItems)}
	ph := phases{parent: obs.SpanFromContext(ctx)}
	defer ph.end()

	sp := ph.next("query-sets")
	if st != nil && (st.n != n || st.emb != emb || !sameGraphSemantics(st.cfg, cfg)) {
		st = nil
	}
	// dirty[e]: entity e regenerates its pairs — its query set changed or,
	// once the index below is built, a query of its crossed the fan-out cap.
	dirty := make([]bool, n)
	querySets := make([][]model.QueryID, n)
	if st == nil {
		d.DenseFallback, d.FallbackReason = true, FallbackNoState
		setAll(dirty)
	} else {
		// Copy-on-write: the previous build's Result aliases the old slice.
		copy(querySets, st.querySets)
		for _, it := range dirtyItems {
			if it < 0 || int(it) >= len(es.ItemEntity) {
				continue // item outside the entity set (e.g. unknown id)
			}
			dirty[es.ItemEntity[it]] = true
		}
	}
	numDirty := 0
	var qbuf []model.QueryID
	for e := range es.Entities {
		if !dirty[e] {
			continue
		}
		qs := entityQuerySet(&es.Entities[e], clicks, &qbuf)
		if st != nil && slices.Equal(qs, st.querySets[e]) {
			// False positive: an item-level membership change that another
			// member item masks leaves the entity's set equal.
			dirty[e] = false
			continue
		}
		querySets[e] = qs
		numDirty++
	}
	sp.SetAttr("dirtyEntities", numDirty)
	if st != nil {
		d.DirtyEntities = numDirty
		if numDirty == 0 {
			// Nothing really moved: the previous build is the current build.
			return &Result{Set: es, Graph: st.graph, QuerySets: st.querySets}, st, d, nil
		}
	}
	numQ := 0 // one past the largest clicked query id
	for _, qs := range querySets {
		if len(qs) > 0 && int(qs[len(qs)-1]) >= numQ {
			numQ = int(qs[len(qs)-1]) + 1
		}
	}
	// The query→entity index, built by counting: packed (query, entity)
	// associations in one flat slice, each query's entities a contiguous
	// ascending run (entities are filled in ascending order) that
	// qOff[q]:qOff[q+1] spans — the content a query→entities map would
	// hold, without the map and without a sort.
	qOff := make([]int32, numQ+1)
	for _, qs := range querySets {
		for _, q := range qs {
			qOff[q+1]++
		}
	}
	for q := 0; q < numQ; q++ {
		qOff[q+1] += qOff[q]
	}
	assoc := make([]uint64, qOff[numQ]) // one per (entity, query)
	next := slices.Clone(qOff[:numQ])
	for e, qs := range querySets {
		for _, q := range qs {
			assoc[next[q]] = packAssoc(q, int32(e))
			next[q]++
		}
	}

	stale := 0 // retained pairs with a dirty endpoint: the ones regenerated
	if st != nil {
		if cfg.MaxQueryFanout > 0 {
			// A dirty entity joining or leaving a query can move its run
			// across the fan-out cap, and then every pair inside the run
			// gains or loses a shared query, the pairs of two clean entities
			// included. The entities of such a run regenerate their pairs
			// like the dirty ones (its clean entities are the same before
			// and after); their query sets stand, so a pair the flip did not
			// reach rescores to the bits it had. The fill left next[q] at the
			// end of q's run: moved back by the dirty entities' joins and
			// forward by their leaves, it ends a run of the previous length.
			for e := range dirty {
				if !dirty[e] {
					continue
				}
				for _, q := range querySets[e] {
					next[q]--
				}
				for _, q := range st.querySets[e] {
					if int(q) < numQ {
						next[q]++
					}
				}
			}
			for q := 0; q < numQ; q++ {
				was, run := int(next[q]-qOff[q]), assoc[qOff[q]:qOff[q+1]]
				if (was > cfg.MaxQueryFanout) != (len(run) > cfg.MaxQueryFanout) {
					for _, x := range run {
						dirty[int32(uint32(x))] = true
					}
				}
			}
		}
		for i := range st.pairs {
			if dirty[st.pairs[i][0]] || dirty[st.pairs[i][1]] {
				stale++
			}
		}
		if float64(stale) > PatchDensityGate*float64(len(st.pairs)) {
			// The one density gate. Past it, filtering and merging is pure
			// overhead over emitting every row in order. The query sets and
			// their index stand — the dirty-item set is exact on membership —
			// but the previous state is let go of before its replacement's
			// pair arrays are allocated, so a caller that handed its only
			// reference over does not hold two builds' through the peak.
			d.DenseFallback, d.FallbackReason = true, FallbackDirtyPairs
			st = nil
			setAll(dirty)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	sp = ph.next("candidates")
	// Candidate pairs via shared queries, with fanout cap, regenerated for
	// the dirty entities row by row and scored where they are found: dirty
	// entity a's candidates are the other entities in the runs of its own
	// queries, and a worker-local stamp array collapses the duplicates (one
	// per shared query) as they appear, so the raw per-query pair lists —
	// twice the distinct pairs at catalog scale — are never materialized.
	// Each partner is scored from its shared-query count on the spot, and
	// only the pairs at or above MinSimilarity — the ones that can become
	// an edge — are kept: sorted, into fixed-size chunks the worker owns,
	// which a parallel copy then lays end to end in row order. A pair of two
	// dirty entities belongs to the lower one's row, a pair with a clean
	// entity to the dirty one's; rows are interleaved across GOMAXPROCS
	// workers (low rows have the most partners) and are disjoint output
	// spans, so the result does not depend on which worker handled which
	// row.
	rows := make([]int32, 0, n)
	for e := range dirty {
		if dirty[e] {
			rows = append(rows, int32(e))
		}
	}
	means := es.meanVectors(emb)
	workers := runtime.GOMAXPROCS(0)
	genOff := make([]int, len(rows)+1)      // row r's pairs land at [genOff[r], genOff[r+1])
	chunks := make([][]*pairChunk, workers) // worker w's kept pairs, its rows in order
	scoredBy := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stamp := make([]int32, n) // stamp[b] == a+1: b already seen in row a
			slot := make([]int32, n)  // where stamped: the queries a and b share, then b's index in rowSims
			var bs []int32
			var rowSims []float64
			var buf []*pairChunk
			var cur *pairChunk
			fill, nScored := chunkLen, 0
			defer func() { chunks[w], scoredBy[w] = buf, nScored }()
			for r := w; r < len(rows); r += workers {
				if r/workers%256 == 255 && ctx.Err() != nil { // every 256th row of w's
					return
				}
				a := rows[r]
				bs = bs[:0]
				for _, q := range querySets[a] {
					run := assoc[qOff[q]:qOff[q+1]]
					if cfg.MaxQueryFanout > 0 && len(run) > cfg.MaxQueryFanout {
						continue
					}
					if st == nil {
						// Every lower partner is dirty as well.
						at, _ := slices.BinarySearch(run, packAssoc(q, a))
						run = run[at+1:]
					}
					for _, x := range run {
						b := int32(uint32(x))
						if stamp[b] != a+1 {
							stamp[b] = a + 1
							slot[b] = 0
							bs = append(bs, b)
						}
						slot[b]++
					}
				}
				// When the whole runs were walked, a itself and the dirty lower
				// partners drop out before scoring.
				k := 0
				rowSims = rowSims[:0]
				for _, b := range bs {
					if st != nil && (b == a || (b < a && dirty[b])) {
						continue
					}
					nScored++
					s := scorePair(querySets, means, emb != nil, cfg.Alpha, min(a, b), max(a, b), slot[b])
					if s >= cfg.MinSimilarity {
						slot[b] = int32(len(rowSims))
						rowSims = append(rowSims, s)
						bs[k] = b
						k++
					}
				}
				slices.Sort(bs[:k])
				for _, b := range bs[:k] {
					if fill == chunkLen {
						cur, fill = new(pairChunk), 0
						buf = append(buf, cur)
					}
					cur.pairs[fill] = [2]int32{min(a, b), max(a, b)}
					cur.sims[fill] = rowSims[slot[b]]
					fill++
				}
				genOff[r+1] = k
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	numScored := 0
	for _, c := range scoredBy {
		numScored += c
	}
	for r := range rows {
		genOff[r+1] += genOff[r]
	}
	pairs := make([][2]int32, genOff[len(rows)])
	sims := make([]float64, len(pairs))
	for w := range chunks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := 0 // position in the worker's chunks
			for r := w; r < len(rows); r += workers {
				for o := genOff[r]; o < genOff[r+1]; {
					c, at := chunks[w][p/chunkLen], p%chunkLen
					m := min(genOff[r+1]-o, chunkLen-at)
					copy(pairs[o:o+m], c.pairs[at:at+m])
					copy(sims[o:o+m], c.sims[at:at+m])
					o, p = o+m, p+m
				}
			}
		}(w)
	}
	wg.Wait()
	regenerated := len(pairs)
	// rank[u]: a changed pair can cross node u's top K, so u re-ranks it;
	// rowDirty[u]: a kept edge of row u changed.
	rank, rowDirty := make([]bool, n), make([]bool, n)
	var topU, topV []bool
	var oldIdx []int32     // a pair's index in st.pairs, -1 for a new pair
	rescored := len(pairs) // pairs whose score is new or moved
	if st == nil {
		// Every entity dirty: ascending rows of ascending (a, b > a) are the
		// canonical pair list as generated.
		setAll(rank)
		setAll(rowDirty)
		topU, topV = make([]bool, len(pairs)), make([]bool, len(pairs))
	} else {
		// A dirty row also emitted the pairs of its clean lower partners,
		// which sort into those partners' rows.
		sort.Sort(byPair{pairs, sims})
		gen, genSims := pairs, sims
		total := len(st.pairs) - stale + len(gen)
		pairs, sims = make([][2]int32, total), make([]float64, total)
		topU, topV = make([]bool, total), make([]bool, total)
		oldIdx = make([]int32, total)
		rescored = 0
		// admit takes a new or re-scored pair w through the re-rank rule: an
		// endpoint re-ranks if the pair now ranks ahead of its previous K-th.
		admit := func(w int) {
			rescored++
			u, v := pairs[w][0], pairs[w][1]
			rank[u] = rank[u] || st.kth[u].admits(sims[w], v)
			rank[v] = rank[v] || st.kth[v].admits(sims[w], u)
		}
		// Merge walk over the retained pairs and the regenerated ones, both
		// in canonical order: it drops the retained pairs with a dirty
		// endpoint and sees the old and the new entry of every key side by
		// side. Both lists hold only pairs at or above MinSimilarity, so a
		// pair that fell below it reads as vanished and one that rose above
		// it as new — the verdicts its moved score calls for.
		for i, g, w := 0, 0, 0; i < len(st.pairs) || g < len(gen); {
			switch {
			case g < len(gen) && (i == len(st.pairs) || pairKey(&gen[g]) < pairKey(&st.pairs[i])):
				// New pair.
				pairs[w], sims[w], oldIdx[w] = gen[g], genSims[g], -1
				admit(w)
				w++
				g++
			case !dirty[st.pairs[i][0]] && !dirty[st.pairs[i][1]]:
				// Maximal clean run below the next regenerated key: the
				// four retained arrays move as block copies.
				j := i + 1
				for j < len(st.pairs) && !dirty[st.pairs[j][0]] && !dirty[st.pairs[j][1]] &&
					(g == len(gen) || pairKey(&st.pairs[j]) < pairKey(&gen[g])) {
					j++
				}
				copy(pairs[w:], st.pairs[i:j])
				copy(sims[w:], st.sims[i:j])
				copy(topU[w:], st.topU[i:j])
				copy(topV[w:], st.topV[i:j])
				for ; i < j; i++ {
					oldIdx[w] = int32(i)
					w++
				}
			case g < len(gen) && gen[g] == st.pairs[i]:
				// Regenerated in place. An unchanged score leaves its side
				// bits standing; a moved one clears both, re-ranks the
				// endpoints whose top K it was in (it may leave), and is
				// admitted like a new pair.
				pairs[w], sims[w], oldIdx[w] = gen[g], genSims[g], int32(i)
				if sims[w] == st.sims[i] {
					topU[w], topV[w] = st.topU[i], st.topV[i]
				} else {
					u, v := pairs[w][0], pairs[w][1]
					rank[u] = rank[u] || st.topU[i]
					rank[v] = rank[v] || st.topV[i]
					admit(w)
				}
				w++
				g++
				i++
			default:
				// Pair vanished. The endpoints whose top K it was in re-rank;
				// if it was a kept edge, both CSR rows change too.
				u, v := st.pairs[i][0], st.pairs[i][1]
				rank[u] = rank[u] || st.topU[i]
				rank[v] = rank[v] || st.topV[i]
				if st.topU[i] || st.topV[i] {
					d.ChangedEdges++
					rowDirty[u], rowDirty[v] = true, true
				}
				i++
			}
		}
	}
	sp.SetAttr("scored", numScored)
	sp.SetAttr("pairs", len(pairs))
	sp.SetAttr("regenerated", regenerated)

	sp = ph.next("rank")
	sp.SetAttr("rescored", rescored)
	// TopK sparsification. An edge survives TopK if it ranks in the top K
	// of *either* endpoint (keeping it in only-one direction would break
	// symmetry). The per-side survival bits are kept (not just the union) so
	// one endpoint can re-rank without recomputing the other's verdict, and
	// so is each node's K-th candidate, the bar the next patch holds a
	// changed pair to.
	// A node's incident candidates are its own row of pairs plus the pairs
	// of lower rows that name it second; only the latter need an index
	// (rev, a CSR of pair indices by second endpoint, of the re-ranking
	// nodes only), and one reusable list then ranks node after node. A
	// re-ranking node's side bits are cleared where its pairs are indexed
	// or walked.
	var kth []kthBest
	if st == nil {
		kth = make([]kthBest, n) // every node ranks and writes its own
	} else {
		kth = slices.Clone(st.kth)
	}
	revOff := make([]int32, n+1)
	for i := range pairs {
		if v := pairs[i][1]; rank[v] {
			revOff[v+1]++
		}
	}
	for u := 0; u < n; u++ {
		revOff[u+1] += revOff[u]
	}
	rev := make([]int32, revOff[n])
	next = slices.Clone(revOff[:n])
	for i := range pairs {
		if v := pairs[i][1]; rank[v] {
			topV[i] = false
			rev[next[v]] = int32(i)
			next[v]++
		}
	}
	var lst []scored
	nodesRanked := 0
	for u, row := int32(0), 0; int(u) < n; u++ {
		if u%256 == 255 {
			if err := ctx.Err(); err != nil {
				return nil, nil, nil, err
			}
		}
		if !rank[u] {
			continue
		}
		if row < len(pairs) && pairs[row][0] < u {
			// Rows of nodes that did not re-rank lie in between: find u's
			// own row, the (u, v>u), by binary search.
			row += sort.Search(len(pairs)-row, func(j int) bool { return pairs[row+j][0] >= u })
		}
		lst = lst[:0]
		for _, i := range rev[revOff[u]:revOff[u+1]] {
			lst = append(lst, scored{other: pairs[i][0], sim: sims[i], idx: int(i)})
		}
		for ; row < len(pairs) && pairs[row][0] == u; row++ {
			topU[row] = false
			lst = append(lst, scored{other: pairs[row][1], sim: sims[row], idx: row})
		}
		if len(lst) > 0 {
			nodesRanked++
		}
		kth[u] = rankNode(lst, u, pairs, topU, topV, cfg.TopK)
	}
	sp.SetAttr("nodesRanked", nodesRanked)
	d.RankedNodes = nodesRanked

	sp = ph.next("emit")
	// Row degrees of the next CSR and, against the previous build, the
	// kept edges that appeared, disappeared or changed weight: their rows
	// are the ones patchCSR rewrites.
	deg := make([]int32, n)
	kept := 0
	for i := range pairs {
		u, v := pairs[i][0], pairs[i][1]
		keep := topU[i] || topV[i]
		if keep {
			kept++
			deg[u]++
			deg[v]++
		}
		if st == nil {
			continue
		}
		oi := oldIdx[i]
		was := oi >= 0 && (st.topU[oi] || st.topV[oi])
		if keep != was || (keep && sims[i] != st.sims[oi]) {
			d.ChangedEdges++
			rowDirty[u], rowDirty[v] = true, true
		}
	}
	var prev *wgraph.CSR
	dirtyRows := n
	if st != nil {
		prev = st.graph
		for u := range rowDirty {
			if rowDirty[u] {
				d.DirtyRows = append(d.DirtyRows, int32(u))
			}
		}
		dirtyRows = len(d.DirtyRows)
	}
	g := prev
	if dirtyRows > 0 {
		var err error
		if g, err = patchCSR(prev, n, pairs, sims, topU, topV, rowDirty, deg); err != nil {
			return nil, nil, nil, err
		}
	}
	sp.SetAttr("dirtyRows", dirtyRows)
	sp.SetAttr("kept", kept)

	nst := &IncState{
		cfg:       cfg,
		n:         n,
		emb:       emb,
		querySets: querySets,
		pairs:     pairs,
		sims:      sims,
		topU:      topU,
		topV:      topV,
		kth:       kth,
		graph:     g,
	}
	return &Result{Set: es, Graph: g, QuerySets: querySets}, nst, d, nil
}

// chunkLen is the length of the fixed-size chunks a worker writes its
// kept pairs into: growing one slice per worker by append would copy and
// discard every smaller backing array on the way up.
const chunkLen = 1024

// pairChunk holds chunkLen kept pairs and their scores.
type pairChunk struct {
	pairs [chunkLen][2]int32
	sims  [chunkLen]float64
}

// byPair co-sorts candidate pairs and their scores into canonical (U,V)
// order.
type byPair struct {
	pairs [][2]int32
	sims  []float64
}

func (s byPair) Len() int           { return len(s.pairs) }
func (s byPair) Less(i, j int) bool { return pairKey(&s.pairs[i]) < pairKey(&s.pairs[j]) }
func (s byPair) Swap(i, j int) {
	s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i]
	s.sims[i], s.sims[j] = s.sims[j], s.sims[i]
}

// pairKey is a pair's sort key. It takes a pointer, and the loops over
// every pair index pairs[i] instead of ranging over copies, because a
// [2]int32 value round-trips through a stack slot that, where it straddles
// a cache line, stalls every iteration on a failed store forward: ≈10 ns
// a pair, a millisecond over a walk of ≈100 k pairs.
func pairKey(p *[2]int32) uint64 { return uint64(uint32(p[0]))<<32 | uint64(uint32(p[1])) }

func packAssoc(q model.QueryID, e int32) uint64 {
	return uint64(uint32(q))<<32 | uint64(uint32(e))
}

func setAll(b []bool) {
	for i := range b {
		b[i] = true
	}
}

// phases opens a build's sub-stage spans one after another under the
// caller's span; every call no-ops when the context carries none.
type phases struct{ parent, cur *obs.Span }

// next ends the open phase and opens its successor.
func (p *phases) next(name string) *obs.Span {
	p.cur.End()
	p.cur = p.parent.Child(name)
	return p.cur
}

func (p *phases) end() { p.cur.End() }

// entityQuerySet returns entity e's query set — the Qu of Eq. 1 — as a
// fresh slice. A one-item entity's set is its click-window row, already
// sorted, copied. A larger entity's member rows are concatenated into the
// caller's reusable scratch buffer, sorted and compacted, so neither a
// per-entity seen map nor a k-way merge exists. The full build and the
// patch both come through here.
func entityQuerySet(e *Entity, clicks *bipartite.Graph, scratch *[]model.QueryID) []model.QueryID {
	if len(e.Items) == 1 {
		row, _ := clicks.Row(e.Items[0])
		return append(make([]model.QueryID, 0, len(row)), row...)
	}
	qbuf := (*scratch)[:0]
	for _, it := range e.Items {
		row, _ := clicks.Row(it)
		qbuf = append(qbuf, row...)
	}
	*scratch = qbuf
	slices.Sort(qbuf)
	qs := make([]model.QueryID, 0, len(qbuf))
	for i, q := range qbuf {
		if i == 0 || q != qbuf[i-1] {
			qs = append(qs, q)
		}
	}
	return qs
}

// scored is one incident candidate edge in a node's TopK ranking.
type scored struct {
	other int32
	sim   float64
	idx   int
}

// before reports whether a ranks ahead of b in a node's TopK order: sim
// descending, then other ascending — a total order, since a node's
// candidates have distinct other endpoints.
func (a scored) before(b scored) bool {
	return a.sim > b.sim || (a.sim == b.sim && a.other < b.other)
}

// kthBest is a node's K-th best candidate in its TopK order, the bar a
// changed pair must clear to enter the node's top K. noKth (sim −Inf)
// stands for fewer than K candidates above MinSimilarity: any above-min
// candidate enters.
type kthBest struct {
	sim   float64
	other int32
}

var noKth = kthBest{sim: math.Inf(-1)}

// admits reports whether a candidate (sim, other) ranks ahead of the bar.
func (b kthBest) admits(sim float64, other int32) bool {
	return scored{other: other, sim: sim}.before(scored{other: b.other, sim: b.sim})
}

// rankNode stamps the side bit of the pairs ranking in the top K of node
// u's incident candidates (k = 0: all of them) and returns the K-th of
// them, or noKth if there are fewer than K. The order is total, so the
// top-K set is unique and selecting it replaces sorting the list: lst[:k]
// holds the best k seen so far, in order, by bounded insertion, and one
// comparison against its last slot rejects most later candidates. lst is
// reordered; it must already be filtered by MinSimilarity. Both the full
// build and the incremental re-rank go through here, so their verdicts
// cannot drift.
func rankNode(lst []scored, u int32, pairs [][2]int32, topU, topV []bool, k int) kthBest {
	bar := noKth
	if k > 0 && k <= len(lst) {
		for i := 1; i < len(lst); i++ {
			c, j := lst[i], min(i, k)
			if j == k {
				if !c.before(lst[k-1]) {
					continue
				}
				j--
			}
			for ; j > 0 && c.before(lst[j-1]); j-- {
				lst[j] = lst[j-1]
			}
			lst[j] = c
		}
		lst = lst[:k]
		bar = kthBest{sim: lst[k-1].sim, other: lst[k-1].other}
	}
	for _, c := range lst {
		if pairs[c.idx][0] == u {
			topU[c.idx] = true
		} else {
			topV[c.idx] = true
		}
	}
	return bar
}

// meanNormVector returns the mean of the L2-normalized embeddings of the
// known tokens, or nil if no token is in vocabulary.
func meanNormVector(emb *word2vec.Model, tokens []string) []float32 {
	var acc []float64
	known := 0
	for _, tok := range tokens {
		v, ok := emb.Vector(tok)
		if !ok {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(v))
		}
		var norm float64
		for _, x := range v {
			norm += float64(x) * float64(x)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		for i, x := range v {
			acc[i] += float64(x) / norm
		}
		known++
	}
	if known == 0 {
		return nil
	}
	out := make([]float32, len(acc))
	for i, x := range acc {
		out[i] = float32(x / float64(known))
	}
	return out
}

// scorePair computes the Eq. 3 blended similarity of one candidate pair
// from its shared-query count and the endpoint query-set sizes. The row
// pass calls it whichever entities are dirty, so a patch and a full build
// share the float expression — and therefore every emitted bit.
// With no content signal (no embeddings, or an endpoint with no known
// tokens) the score renormalizes to pure Sq so a query match can still
// reach 1.0.
func scorePair(querySets [][]model.QueryID, means [][]float32, hasEmb bool, alpha float64, u, v, count int32) float64 {
	ic := float64(count)
	union := float64(len(querySets[u])+len(querySets[v])) - ic
	sq := 0.0
	if union > 0 {
		sq = ic / union
	}
	s := alpha * sq
	if hasEmb && means[u] != nil && means[v] != nil {
		sc := 0.5 + 0.5*dot(means[u], means[v])
		s += (1 - alpha) * sc
	} else if alpha > 0 {
		s = sq
	}
	return s
}

func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}
