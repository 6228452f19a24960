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
	"shoal/internal/par"
	"shoal/internal/reuse"
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
	res, _, _, err := build(ctx, es, clicks, emb, cfg, nil, nil, nil)
	return res, err
}

// BuildWithState is Build, additionally returning the retained
// intermediate state (query sets, the candidate pairs at or above
// MinSimilarity with their scores, TopK side bits) that BuildIncremental
// patches on the next window slide.
// The state aliases the build's own arrays, so capturing it is free.
func BuildWithState(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config) (*Result, *IncState, error) {
	res, st, _, err := build(ctx, es, clicks, emb, cfg, nil, nil, nil)
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
// build. With ws nil, st is only read and every array is allocated: the
// returned state is a new one, sharing what it did not touch. With a
// workspace, st is consumed: the build's scratch and the new state's pair
// arrays come out of ws, and st's pair arrays go back into it.
func build(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config, st *IncState, dirtyItems []model.ItemID, ws *Workspace) (*Result, *IncState, *Delta, error) {
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
	// recycle: the caller handed st over with a workspace, so st's pair
	// arrays may be written. Without one the build gets a workspace of its
	// own, every array in it fresh, and st is only read.
	recycle := ws != nil
	if !recycle {
		ws = new(Workspace)
	}
	if st != nil && (st.n != n || st.emb != emb || !sameGraphSemantics(st.cfg, cfg)) {
		if recycle {
			ws.adopt(st)
		}
		st = nil
	}
	// dirty[e]: entity e regenerates its pairs — its query set changed or,
	// once the index below is built, a query of its crossed the fan-out cap.
	dirty := reuse.Grow(ws.dirty, n)
	clear(dirty)
	ws.dirty = dirty
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
	// The query→entity index, built by counting: the entity ids of every
	// (entity, query) association in one flat slice, each query's entities
	// a contiguous ascending run (entities are filled in ascending order)
	// that qOff[q]:qOff[q+1] spans — the content a query→entities map would
	// hold, without the map and without a sort.
	qOff := reuse.Grow(ws.qOff, numQ+1)
	clear(qOff)
	ws.qOff = qOff
	for _, qs := range querySets {
		for _, q := range qs {
			qOff[q+1]++
		}
	}
	for q := 0; q < numQ; q++ {
		qOff[q+1] += qOff[q]
	}
	assoc := reuse.Grow(ws.assoc, int(qOff[numQ]))
	next := append(ws.next[:0], qOff[:numQ]...)
	ws.assoc, ws.next = assoc, next
	for e, qs := range querySets {
		for _, q := range qs {
			assoc[next[q]] = int32(e)
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
					for _, e := range run {
						dirty[e] = true
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
			// pair arrays are allocated — through a workspace, they are
			// written over — so a caller that handed its only reference over
			// does not hold two builds' through the peak.
			d.DenseFallback, d.FallbackReason = true, FallbackDirtyPairs
			if recycle {
				ws.adopt(st) // the dense run writes over the dropped state's arrays
			}
			st = nil
			setAll(dirty)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	ph.end()
	means, norms := es.meanVectors(emb, ph.parent)
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
	rows := ws.rows[:0]
	for e := range dirty {
		if dirty[e] {
			rows = append(rows, int32(e))
		}
	}
	ws.rows = rows
	// On a dense run every lower partner is dirty as well, so a row walks
	// each of its runs from just past itself: self[selfOff[e]+i] is where
	// entity e sits in the run of its i-th query, recorded by filling the
	// runs again in the same order.
	var self, selfOff []int32
	if st == nil {
		self, selfOff = reuse.Grow(ws.self, len(assoc)), reuse.Grow(ws.selfOff, n+1)
		ws.self, ws.selfOff = self, selfOff
		selfOff[0] = 0
		copy(next, qOff)
		for e, qs := range querySets {
			o := selfOff[e]
			selfOff[e+1] = o + int32(len(qs))
			for i, q := range qs {
				self[o+int32(i)] = next[q]
				next[q]++
			}
		}
	}
	// A pair whose Eq. 3 score cannot reach MinSimilarity even with its
	// mean vectors' dot at the Cauchy–Schwarz maximum ‖u‖‖v‖ is dropped
	// without computing the dot: bounded by more than boundMargin, which
	// covers the rounding of both the dot and the norms.
	floor := cfg.MinSimilarity - boundMargin
	workers := runtime.GOMAXPROCS(0)
	genOff := reuse.Grow(ws.genOff, len(rows)+1) // row r's pairs land at [genOff[r], genOff[r+1])
	genOff[0] = 0
	ws.genOff = genOff
	ws.rowers = reuse.Grow(ws.rowers, workers)
	rowers := ws.rowers
	counts := make([][2]int, workers) // worker w's scored and bounded partners
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rw := &rowers[w]
			stamp := reuse.Grow(rw.stamp, n) // stamp[b] == a+1: b already seen in row a
			clear(stamp)
			slot := reuse.Grow(rw.slot, n) // where stamped: the queries a and b share, then b's index in rowSims
			bs, pend := rw.bs, rw.pend
			rowSims, pendSims := rw.rowSims, rw.pendSims
			buf := rw.chunks[:0] // worker w's kept pairs, its rows in order
			var cur *pairChunk
			fill, nScored, nBounded := chunkLen, 0, 0
			defer func() {
				rw.stamp, rw.slot, rw.bs, rw.pend, rw.rowSims, rw.pendSims = stamp, slot, bs, pend, rowSims, pendSims
				clear(buf[len(buf):cap(buf)])
				rw.chunks, counts[w] = buf[:len(buf):len(buf)], [2]int{nScored, nBounded}
			}()
			for r := w; r < len(rows); r += workers {
				if r/workers%256 == 255 && ctx.Err() != nil { // every 256th row of w's
					return
				}
				a := rows[r]
				bs = bs[:0]
				for i, q := range querySets[a] {
					lo, hi := qOff[q], qOff[q+1]
					if cfg.MaxQueryFanout > 0 && int(hi-lo) > cfg.MaxQueryFanout {
						continue
					}
					if self != nil {
						lo = self[selfOff[a]+int32(i)] + 1
					}
					for _, b := range assoc[lo:hi] {
						if stamp[b] != a+1 {
							stamp[b] = a + 1
							slot[b] = 0
							bs = append(bs, b)
						}
						slot[b]++
					}
				}
				// When the whole runs were walked, a itself and the dirty lower
				// partners drop out before scoring. A partner with no content
				// signal is scored outright; one with it passes the bound and
				// waits in pend (pendSims: its Sq, then its score) for its dot.
				k := 0
				rowSims, pend, pendSims = rowSims[:0], pend[:0], pendSims[:0]
				for _, b := range bs {
					if st != nil && (b == a || (b < a && dirty[b])) {
						continue
					}
					nScored++
					if means[a] == nil || means[b] == nil {
						if s := scorePair(querySets, means, cfg.Alpha, a, b, slot[b]); s >= cfg.MinSimilarity {
							slot[b] = int32(len(rowSims))
							rowSims = append(rowSims, s)
							bs[k] = b
							k++
						}
						continue
					}
					sq := jaccard(querySets, a, b, slot[b])
					if blend(cfg.Alpha, sq, float64(norms[a]*norms[b])) < floor {
						nBounded++
						continue
					}
					pend = append(pend, b)
					pendSims = append(pendSims, sq)
				}
				// Four dots at a time, the rest one by one: each has dot's bits.
				ma, i := means[a], 0
				for ; i+4 <= len(pend); i += 4 {
					d := dot4(ma, means[pend[i]], means[pend[i+1]], means[pend[i+2]], means[pend[i+3]])
					for j := range d {
						pendSims[i+j] = blend(cfg.Alpha, pendSims[i+j], d[j])
					}
				}
				for ; i < len(pend); i++ {
					pendSims[i] = blend(cfg.Alpha, pendSims[i], dot(ma, means[pend[i]]))
				}
				for i, b := range pend {
					if s := pendSims[i]; s >= cfg.MinSimilarity {
						slot[b] = int32(len(rowSims))
						rowSims = append(rowSims, s)
						bs[k] = b
						k++
					}
				}
				slices.Sort(bs[:k])
				for _, b := range bs[:k] {
					if fill == chunkLen {
						// The next chunk: one the workspace kept, or a new one.
						if len(buf) < cap(buf) && buf[:len(buf)+1][len(buf)] != nil {
							cur = buf[:len(buf)+1][len(buf)]
						} else {
							cur = new(pairChunk)
						}
						buf, fill = append(buf, cur), 0
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
	numScored, numBounded := 0, 0
	for _, c := range counts {
		numScored += c[0]
		numBounded += c[1]
	}
	for r := range rows {
		genOff[r+1] += genOff[r]
	}
	// The generated pairs: on a dense run they are the state's, laid out
	// in the workspace's pair arrays; on a patch they are merged below.
	var pairs [][2]int32
	var sims []float64
	if st == nil {
		pairs, sims = reuse.Grow(ws.pairs, genOff[len(rows)]), reuse.Grow(ws.sims, genOff[len(rows)])
	} else {
		pairs, sims = reuse.Grow(ws.gen, genOff[len(rows)]), reuse.Grow(ws.genSims, genOff[len(rows)])
		ws.gen, ws.genSims = pairs, sims
	}
	for w := range rowers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunks := rowers[w].chunks
			if st == nil {
				// A dense run's chunks hold every pair a second time: the
				// workspace lets them go rather than keep them live
				// between slides. A patch's few are kept for the next.
				defer func() { rowers[w].chunks = nil }()
			}
			p := 0 // position in the worker's chunks
			for r := w; r < len(rows); r += workers {
				for o := genOff[r]; o < genOff[r+1]; {
					c, at := chunks[p/chunkLen], p%chunkLen
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
	rank, rowDirty := reuse.Grow(ws.rank, n), reuse.Grow(ws.rowDirty, n)
	ws.rank, ws.rowDirty = rank, rowDirty
	clear(rank)
	clear(rowDirty)
	var topU, topV []bool
	var oldIdx []int32     // a pair's index in st.pairs, -1 for a new pair
	rescored := len(pairs) // pairs whose score is new or moved
	if st == nil {
		// Every entity dirty: ascending rows of ascending (a, b > a) are the
		// canonical pair list as generated.
		setAll(rank)
		setAll(rowDirty)
		topU, topV = reuse.Grow(ws.topU, len(pairs)), reuse.Grow(ws.topV, len(pairs))
		clear(topU)
		clear(topV)
	} else {
		// A dirty row also emitted the pairs of its clean lower partners,
		// which sort into those partners' rows.
		sort.Sort(byPair{pairs, sims})
		gen, genSims := pairs, sims
		total := len(st.pairs) - stale + len(gen)
		pairs, sims = reuse.Grow(ws.pairs, total), reuse.Grow(ws.sims, total)
		topU, topV = reuse.Grow(ws.topU, total), reuse.Grow(ws.topV, total)
		oldIdx = reuse.Grow(ws.oldIdx, total)
		ws.oldIdx = oldIdx
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
				topU[w], topV[w] = false, false
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
					topU[w], topV[w] = false, false
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
	sp.SetAttr("bounded", numBounded)
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
	// A node's incident candidates are its own row of pairs (rowOff, the
	// pairs by first endpoint: they are in canonical order) plus the pairs
	// of lower rows that name it second (rev, a CSR of pair indices by
	// second endpoint, of the re-ranking nodes only). A re-ranking node's
	// side bits are cleared where its pairs are indexed or walked. The
	// nodes split into par ranges balanced by their incident candidates;
	// node u writes only kth[u], the topU bits of its own row and the topV
	// bits its rev entries name, so every slot has one writer and the
	// verdicts do not depend on the width.
	rk := ranker{ctx: ctx, pairs: pairs, sims: sims, topU: topU, topV: topV, rank: rank, k: cfg.TopK}
	if st == nil {
		rk.kth = reuse.Grow(ws.kth, n) // every node ranks and writes its own
	} else {
		rk.kth = append(ws.kth[:0], st.kth...)
	}
	rk.rowOff, rk.revOff = reuse.Grow(ws.rowOff, n+1), reuse.Grow(ws.revOff, n+1)
	ws.rowOff, ws.revOff = rk.rowOff, rk.revOff
	clear(rk.rowOff)
	clear(rk.revOff)
	for i := range pairs {
		rk.rowOff[pairs[i][0]+1]++
		if v := pairs[i][1]; rank[v] {
			rk.revOff[v+1]++
		}
	}
	for u := 0; u < n; u++ {
		rk.rowOff[u+1] += rk.rowOff[u]
		rk.revOff[u+1] += rk.revOff[u]
	}
	rk.rev = reuse.Grow(ws.rev, int(rk.revOff[n]))
	next = append(next[:0], rk.revOff[:n]...)
	ws.rev, ws.next = rk.rev, next
	for i := range pairs {
		if v := pairs[i][1]; rank[v] {
			topV[i] = false
			rk.rev[next[v]] = int32(i)
			next[v]++
		}
	}
	bounds := par.Split(nil, n, rk.cost)
	rk.ranked = make([]int, len(bounds)-1)
	if err := par.Run(bounds, &rk, (*ranker).rankNodes); err != nil {
		return nil, nil, nil, err
	}
	nodesRanked := 0
	for _, c := range rk.ranked {
		nodesRanked += c
	}
	sp.SetAttr("workers", len(bounds)-1)
	sp.SetAttr("nodesRanked", nodesRanked)
	d.RankedNodes = nodesRanked

	sp = ph.next("emit")
	// Row degrees of the next CSR and, against the previous build, the
	// kept edges that appeared, disappeared or changed weight: their rows
	// are the ones patchCSR rewrites.
	deg := reuse.Grow(ws.deg, n)
	clear(deg)
	ws.deg = deg
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
		kth:       rk.kth,
		graph:     g,
	}
	// The new state's arrays leave the workspace; a consumed state's take
	// their place, the spare the next patch merges into.
	ws.pairs, ws.sims, ws.topU, ws.topV, ws.kth = nil, nil, nil, nil, nil
	if recycle && st != nil {
		ws.adopt(st)
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

// ranker holds the rank phase's arrays for its par ranges.
type ranker struct {
	ctx                 context.Context
	pairs               [][2]int32
	sims                []float64
	topU, topV, rank    []bool
	kth                 []kthBest
	rowOff, revOff, rev []int32
	k                   int
	ranked              []int // per range: the nodes ranked with a candidate
}

// cost is node u's share of the rank: its incident candidates, if it
// re-ranks.
func (r *ranker) cost(u int) int {
	if !r.rank[u] {
		return 0
	}
	return int(r.rowOff[u+1]-r.rowOff[u]+r.revOff[u+1]-r.revOff[u]) + 1
}

// rankNodes ranks the re-ranking nodes of [lo, hi), each from one
// reusable list of its incident candidates.
func (r *ranker) rankNodes(w, lo, hi int) error {
	pairs, sims, topU, rowOff, revOff := r.pairs, r.sims, r.topU, r.rowOff, r.revOff
	var lst []scored
	ranked := 0
	for u := lo; u < hi; u++ {
		if u%256 == 255 {
			if err := r.ctx.Err(); err != nil {
				return err
			}
		}
		if !r.rank[u] {
			continue
		}
		lst = lst[:0]
		for _, i := range r.rev[revOff[u]:revOff[u+1]] {
			lst = append(lst, scored{other: pairs[i][0], sim: sims[i], idx: int(i)})
		}
		for row := int(rowOff[u]); row < int(rowOff[u+1]); row++ {
			topU[row] = false
			lst = append(lst, scored{other: pairs[row][1], sim: sims[row], idx: row})
		}
		if len(lst) > 0 {
			ranked++
		}
		r.kth[u] = rankNode(lst, int32(u), pairs, topU, r.topV, r.k)
	}
	r.ranked[w] = ranked
	return nil
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

// boundMargin is how far below MinSimilarity the norm bound
// α·Sq + (1−α)(½ + ½‖u‖‖v‖) must fall before a pair's dot is skipped.
// The computed dot of two float32 vectors of dimension d can exceed the
// computed product of their norms only by rounding, under ≈2d·2⁻⁵³ of
// ‖u‖‖v‖ ≤ 1; 1e-9 covers that past a million dimensions, and a pair it
// keeps is merely scored.
const boundMargin = 1e-9

// scorePair computes the Eq. 3 blended similarity of one candidate pair
// from its shared-query count and the endpoint query-set sizes; it is
// symmetric in u and v, bit for bit. The row pass scores a pair without
// a content signal through it, and every other pair through the same
// pieces: jaccard, then blend over the dot (four at a time through dot4,
// whose chains keep dot's bits); the norm bound is blend over the norms'
// product. A patch and a full build therefore share the float
// expression — and every emitted bit.
// With no content signal (no embeddings, or an endpoint with no known
// tokens) the score renormalizes to pure Sq so a query match can still
// reach 1.0.
func scorePair(querySets [][]model.QueryID, means [][]float32, alpha float64, u, v, count int32) float64 {
	sq := jaccard(querySets, u, v, count)
	if means[u] != nil && means[v] != nil {
		return blend(alpha, sq, dot(means[u], means[v]))
	}
	if alpha > 0 {
		return sq
	}
	return float64(alpha * sq)
}

// jaccard is Eq. 1, Sq, of two entities sharing count queries.
func jaccard(querySets [][]model.QueryID, u, v, count int32) float64 {
	ic := float64(count)
	union := float64(len(querySets[u])+len(querySets[v])) - ic
	if union > 0 {
		return ic / union
	}
	return 0
}

// blend is Eq. 3 over Sq and the mean vectors' dot d, with Eq. 2's
// Sc = ½ + ½d. Every step rounds, and each is monotone in d.
func blend(alpha, sq, d float64) float64 {
	sc := 0.5 + float64(0.5*d)
	return float64(alpha*sq) + float64((1-alpha)*sc)
}

func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(float64(a[i]) * float64(b[i]))
	}
	return s
}

// dot4 is dot of a with each of b0..b3, as four independent chains that
// each sum in dot's element order, so every result has dot's bits.
func dot4(a, b0, b1, b2, b3 []float32) [4]float64 {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	var s0, s1, s2, s3 float64
	for i, x := range a {
		y := float64(x)
		s0 += float64(y * float64(b0[i]))
		s1 += float64(y * float64(b1[i]))
		s2 += float64(y * float64(b2[i]))
		s3 += float64(y * float64(b3[i]))
	}
	return [4]float64{s0, s1, s2, s3}
}
