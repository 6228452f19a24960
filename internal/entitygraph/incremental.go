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
// A patch costs O(delta) plus block copies: every state also retains its
// pairs' index by node (pairIndex), which a dense run's rank lays out and
// a patch patches, so the patch finds the pairs a dirty entity reaches,
// and the rows and columns they sit in, without walking the retained
// list, and moves every untouched row and column span as one copy.
//
// The routine degrades continuously into the full build, which is the
// same code with every entity dirty. One gate short-cuts the tail: when
// more than PatchDensityGate of the retained pairs have a dirty endpoint,
// dropping and merging them back costs more than emitting every row in
// order, so every row is emitted and the previous state is released once
// the rows have carried its pairs of two clean entities over.
// Delta.FallbackReason names why a build ran dense.

import (
	"context"
	"fmt"
	"slices"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/reuse"
	"shoal/internal/wgraph"
	"shoal/internal/word2vec"
)

// PatchDensityGate is the share of the retained pairs — the candidates at
// or above MinSimilarity — with a dirty endpoint above which an
// incremental rebuild stops patching and runs dense, emitting every row:
// past it, filtering the retained arrays and merging the regenerated
// pairs back costs more than it saves. The dense run still carries the
// pairs of two clean entities, so its cost falls with the share too. On
// the c30 catalog with embeddings a patch and the dense run cost the same
// at a share of about 0.15-0.2 (about 0.25 while the dense run rescored
// every pair). The benchmark's workloads sit at 0.03-0.06 (low churn) and
// 0.60-0.65 (high churn), on either side of both, so the gate stays at
// 0.5: no workload measures a share in between.
const PatchDensityGate = 0.5

// IncState is the retained intermediate state of an entity-graph build,
// the input to BuildIncremental on the next window slide. It aliases the
// producing build's arrays (capture is free) and is immutable once
// returned: an incremental build emits a fresh IncState, sharing whatever
// it did not touch. Only its owner's Workspace.BuildIncremental consumes
// it, recycling its pair arrays.
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
	kth []kthBest
	// idx indexes pairs by node: the dense rank lays it out, a patch
	// patches the one it consumed.
	idx   pairIndex
	graph *wgraph.CSR
}

// pairIndex locates a canonical pair list's pairs by node without walking
// it: row u — the pairs (u, v > u), consecutive in canonical order — is
// pairs[rowOff[u]:rowOff[u+1]], and col[colOff[u]:colOff[u+1]] are the
// x < u with a pair (x, u), ascending. Pair (x, u) itself is found by
// binary search in row x.
type pairIndex struct {
	rowOff, colOff, col []int32
}

// stale counts the pairs with a dirty endpoint from the dirty entities'
// row lengths and columns, and returns it with the column entries walked.
func (ix *pairIndex) stale(dirty []bool) (stale, walked int) {
	for u, d := range dirty {
		if !d {
			continue
		}
		stale += int(ix.rowOff[u+1] - ix.rowOff[u])
		col := ix.col[ix.colOff[u]:ix.colOff[u+1]]
		walked += len(col)
		for _, x := range col {
			if !dirty[x] {
				stale++ // a pair of two dirty entities is in the lower one's row
			}
		}
	}
	return stale, walked
}

// prefixSum turns counts at off[k+1] into the starting offsets off[k].
func prefixSum(off []int32) {
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
}

// unshift turns offsets that a fill advanced to each bucket's end back
// into the buckets' starts.
func unshift(off []int32) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// pairAt returns the index of pair (x, u) in row x, or where it would go.
func pairAt(pairs [][2]int32, rowOff []int32, x, u int32) int {
	return lowerBound(pairs, int(rowOff[x]), int(rowOff[x+1]), u)
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
	return build(ctx, es, clicks, emb, cfg, st, dirtyItems, nil)
}

// Workspace is what an owner's builds hand one another instead of
// allocating it again: the pair arrays, K-th bests and pair index of the
// state the last build consumed — the spare the next state is laid out
// in — and the scratch of every phase, the query index, the workers'
// stamp arrays, row buffers and a patch's candidate chunks among it. The
// scratch only a dense run reads, the rank's reverse index, is let go of
// by a patch, and a dense run's chunks are not kept: they hold
// every pair a second time, which would stay live between slides.
// Nothing a Result or an IncState references is in it once a build
// returns. The zero value is empty; one serves one build at a time.
type Workspace struct {
	// The spare pair arrays and index, a consumed state's.
	pairs      [][2]int32
	sims       []float64
	topU, topV []bool
	kth        []kthBest
	idx        pairIndex
	// A patch's lists: its regenerated pairs as the rows laid them out
	// (gen, genSims) and in canonical order (cgen, cgenSims), the four
	// lists' offsets (off) and the three patch lists' values (vals), the
	// (key, value) records they are grouped from, its edge edits grouped
	// by row, each rank range's lists and the flipped pairs they add up to.
	gen, cgen         [][2]int32
	genSims, cgenSims []float64
	off, vals, eRow   []int32
	kv, changed       [][2]int32
	edits             []edgeEdit
	rankers           []rankLists
	flipped           []int32
	// Per-phase scratch.
	dirty, rank       []bool
	qOff, assoc, next []int32
	rows, rev, deg    []int32
	genOff            []int
	rowers            []rower
}

// rower is one candidate worker's scratch: its stamp and slot arrays,
// the bitset of a row's survivors — n bits, zero between rows, which
// orders each row without a sort — its row buffers and the chunks a
// patch's kept pairs are written into; and its counts.
type rower struct {
	stamp, slot, bs, pend []int32
	kept                  []uint64
	rowSims, pendSims     []float64
	chunks                []*pairChunk
	// The partners scored and bounded out, the pairs carried from a
	// dropped state and the dropped state's pairs read to find them.
	scored, bounded, reused, walked int
}

// BuildIncremental is the package-level BuildIncremental for the owner of
// st, who hands it over: st must not be used again, by anyone, and its
// pair arrays become the workspace's spare. A dense run writes the new
// state over the dropped state's arrays, so two builds' pair arrays never
// coexist on one. The output is BuildIncremental's, bit for bit.
func (ws *Workspace) BuildIncremental(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config, st *IncState, dirtyItems []model.ItemID) (*Result, *IncState, *Delta, error) {
	return build(ctx, es, clicks, emb, cfg, st, dirtyItems, ws)
}

// adopt makes st's pair arrays and index the workspace's spare, letting
// go of the spare it held.
func (ws *Workspace) adopt(st *IncState) {
	ws.pairs, ws.sims, ws.topU, ws.topV, ws.kth, ws.idx = st.pairs, st.sims, st.topU, st.topV, st.kth, st.idx
}

// patch carries a patch between build's phases: the state it consumes,
// st, with st's index, and the next state's pair arrays and index as the
// merge lays them out. Every list in it is short — the dirty entities'
// pairs, before and after — and every other span of the retained arrays
// moves as a block copy. walked counts the retained pairs and index
// entries read one at a time, for the open phase's span.
type patch struct {
	st    *IncState
	old   pairIndex
	n     int
	stale int // st's pairs with a dirty endpoint
	dirty []bool
	rank  []bool
	// The regenerated pairs in canonical order, row u's at
	// gen[genOff[u]:genOff[u+1]], and their first endpoints by second,
	// column u's at gcol[gcolOff[u]:gcolOff[u+1]], ascending.
	gen           [][2]int32
	genSims       []float64
	genOff        []int32
	gcol, gcolOff []int32
	// The stale pairs — those with a dirty endpoint — of st: row u's as
	// ascending positions in st.pairs at rdel[rdelOff[u]:rdelOff[u+1]],
	// and a clean column u's as ascending first endpoints at
	// cdel[cdelOff[u]:cdelOff[u+1]] (a dirty column's are all of it).
	rdel, rdelOff []int32
	cdel, cdelOff []int32
	// The next state's.
	pairs      [][2]int32
	sims       []float64
	topU, topV []bool
	idx        pairIndex
	// changed holds, in canonical order, (index in pairs, index in
	// st.pairs) of every regenerated or vanished pair, −1 on the side it
	// is missing from.
	changed [][2]int32
	walked  int
}

// group lays the values of kv, (key, value) records with keys below
// len(off)-1, out by key, each key's in the order kv gives them, into
// out[:len(kv)], and returns that with off filled as its offsets.
func group(kv [][2]int32, off, out []int32) []int32 {
	clear(off)
	for i := range kv {
		off[kv[i][0]+1]++
	}
	prefixSum(off)
	out = out[:len(kv)]
	for i := range kv {
		k := kv[i][0]
		out[off[k]] = kv[i][1]
		off[k]++
	}
	unshift(off)
	return out
}

// lists lays out the patch's edit lists. The regenerated pairs, as the
// rows emitted them, reach canonical order by a counting sort on the
// first endpoint. It is stable: a dirty row's own pairs come out
// ascending and stay so, and the pairs a clean row gains from dirty rows
// below it arrive by ascending partner. The stale pairs are listed from
// the dirty entities' rows and columns in st's index. The four lists'
// offsets share one array, and the three grouped lists' values another.
func (p *patch) lists(gen [][2]int32, sims []float64, ws *Workspace) {
	st, old, n := p.st, p.old, p.n
	offs := reuse.Grow(ws.off, 4*(n+1))
	vals := reuse.Grow(ws.vals, len(gen)+2*p.stale) // gcol, then at most stale each
	ws.off, ws.vals = offs, vals
	p.genOff, p.gcolOff = offs[:n+1:n+1], offs[n+1:2*(n+1):2*(n+1)]
	p.rdelOff, p.cdelOff = offs[2*(n+1):3*(n+1):3*(n+1)], offs[3*(n+1):]
	off := p.genOff
	clear(off)
	for i := range gen {
		off[gen[i][0]+1]++
	}
	prefixSum(off)
	out, outSims := reuse.Grow(ws.cgen, len(gen)), reuse.Grow(ws.cgenSims, len(gen))
	for i := range gen {
		u := gen[i][0]
		out[off[u]], outSims[off[u]] = gen[i], sims[i]
		off[u]++
	}
	unshift(off)
	ws.cgen, ws.cgenSims = out, outSims
	p.gen, p.genSims = out, outSims

	kv := reuse.Slice(ws.kv, 0, max(len(gen), p.stale)) // the longest of the three lists
	for i := range out {
		kv = append(kv, [2]int32{out[i][1], out[i][0]})
	}
	p.gcol = group(kv, p.gcolOff, vals)
	vals = vals[len(kv):]

	// Rows: a dirty row's every pair, a clean row's pairs with a dirty
	// partner. The dirty entities ascend, so each row's positions do.
	kv = kv[:0]
	for u, d := range p.dirty {
		if !d {
			continue
		}
		for i := old.rowOff[u]; i < old.rowOff[u+1]; i++ {
			kv = append(kv, [2]int32{int32(u), i})
		}
		col := old.col[old.colOff[u]:old.colOff[u+1]]
		for _, x := range col {
			if !p.dirty[x] {
				kv = append(kv, [2]int32{x, int32(pairAt(st.pairs, old.rowOff, x, int32(u)))})
			}
		}
		p.walked += len(col)
	}
	p.rdel = group(kv, p.rdelOff, vals)
	vals = vals[len(kv):]

	// Columns: a clean column's dirty entries (a dirty column keeps none).
	kv = kv[:0]
	for x, d := range p.dirty {
		if !d {
			continue
		}
		lo, hi := int(old.rowOff[x]), int(old.rowOff[x+1])
		for i := lo; i < hi; i++ {
			if u := st.pairs[i][1]; !p.dirty[u] {
				kv = append(kv, [2]int32{u, int32(x)})
			}
		}
		p.walked += hi - lo
	}
	p.cdel = group(kv, p.cdelOff, vals)
	ws.kv = kv
}

// merge lays the next state's pairs out into the workspace's spare
// arrays, total of them: st's arrays with the stale pairs taken out and
// the regenerated ones put in, every run between two of those one block
// copy of each array. A stale pair and a regenerated one of the same key
// meet side by side. Both lists hold only pairs at or above
// MinSimilarity, so a pair that fell below it reads as vanished and one
// that rose above it as new — the verdicts its moved score calls for. It
// marks the nodes that re-rank and returns how many regenerated pairs
// came out new or re-scored.
func (p *patch) merge(ws *Workspace, total int) (rescored int, err error) {
	st, old, n := p.st, p.old, p.n
	pairs, sims := reuse.Grow(ws.pairs, total), reuse.Grow(ws.sims, total)
	topU, topV := reuse.Grow(ws.topU, total), reuse.Grow(ws.topV, total)
	rowOff := reuse.Grow(p.idx.rowOff, n+1)
	changed := reuse.Slice(ws.changed, 0, len(p.gen)+p.stale)
	rank := p.rank
	// admit takes a new or re-scored pair w through the re-rank rule: an
	// endpoint re-ranks if the pair now ranks ahead of its previous K-th.
	admit := func(w int) {
		rescored++
		u, v := pairs[w][0], pairs[w][1]
		rank[u] = rank[u] || st.kth[u].admits(sims[w], v)
		rank[v] = rank[v] || st.kth[v].admits(sims[w], u)
	}
	w, pos := 0, 0 // the next slot of pairs, the next unread pair of st
	move := func(to int) {
		copy(pairs[w:], st.pairs[pos:to])
		copy(sims[w:], st.sims[pos:to])
		copy(topU[w:], st.topU[pos:to])
		copy(topV[w:], st.topV[pos:to])
		w, pos = w+to-pos, to
	}
	for x := 0; x < n; x++ {
		dels := p.rdel[p.rdelOff[x]:p.rdelOff[x+1]]
		gen, genSims := p.gen[p.genOff[x]:p.genOff[x+1]], p.genSims[p.genOff[x]:p.genOff[x+1]]
		lo, end := int(old.rowOff[x]), int(old.rowOff[x+1])
		if len(dels) == 0 && len(gen) == 0 {
			rowOff[x] = int32(w + lo - pos) // moves with the next block
			continue
		}
		move(lo)
		rowOff[x] = int32(w)
		p.walked += len(dels)
		for g := 0; len(dels) > 0 || g < len(gen); {
			if len(dels) == 0 || g < len(gen) && gen[g][1] < st.pairs[dels[0]][1] {
				// New pair.
				move(lowerBound(st.pairs, pos, end, gen[g][1]))
				pairs[w], sims[w] = gen[g], genSims[g]
				topU[w], topV[w] = false, false
				admit(w)
				changed = append(changed, [2]int32{int32(w), -1})
				w++
				g++
				continue
			}
			i := int(dels[0])
			dels = dels[1:]
			move(i)
			pos++
			u, v := st.pairs[i][0], st.pairs[i][1]
			if g < len(gen) && gen[g][1] == v {
				// Regenerated in place. An unchanged score leaves its side
				// bits standing; a moved one clears both, re-ranks the
				// endpoints whose top K it was in (it may leave), and is
				// admitted like a new pair.
				pairs[w], sims[w] = gen[g], genSims[g]
				if sims[w] == st.sims[i] {
					topU[w], topV[w] = st.topU[i], st.topV[i]
				} else {
					topU[w], topV[w] = false, false
					rank[u] = rank[u] || st.topU[i]
					rank[v] = rank[v] || st.topV[i]
					admit(w)
				}
				changed = append(changed, [2]int32{int32(w), int32(i)})
				w++
				g++
			} else {
				// Pair vanished. The endpoints whose top K it was in re-rank.
				rank[u] = rank[u] || st.topU[i]
				rank[v] = rank[v] || st.topV[i]
				changed = append(changed, [2]int32{-1, int32(i)})
			}
		}
	}
	move(len(st.pairs))
	if w != total {
		return 0, fmt.Errorf("entitygraph: patch laid out %d pairs, want %d", w, total)
	}
	rowOff[n] = int32(w)
	ws.changed = changed
	p.pairs, p.sims, p.topU, p.topV, p.idx.rowOff, p.changed = pairs, sims, topU, topV, rowOff, changed
	return rescored, nil
}

// lowerBound returns the first i in [lo, hi) of a run of pairs ascending
// by second endpoint with pairs[i][1] >= v, or hi. A run of a few cache
// lines is scanned: most rows are that short, and a scan's branch
// predicts where a bisection's does not.
func lowerBound(pairs [][2]int32, lo, hi int, v int32) int {
	for hi-lo > 16 {
		m := int(uint(lo+hi) >> 1)
		if pairs[m][1] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for lo < hi && pairs[lo][1] < v {
		lo++
	}
	return lo
}

// columns lays out the next state's column index the same way: st's
// columns with the stale entries taken out and the regenerated pairs'
// put in, every run between two of those one block copy.
func (p *patch) columns() {
	old, n := p.old, p.n
	colOff, col := reuse.Grow(p.idx.colOff, n+1), reuse.Grow(p.idx.col, len(p.pairs))
	c, pos := 0, 0 // the next slot of col, the next unread entry of st's
	for u := 0; u < n; u++ {
		del, add := p.cdel[p.cdelOff[u]:p.cdelOff[u+1]], p.gcol[p.gcolOff[u]:p.gcolOff[u+1]]
		lo, end := int(old.colOff[u]), int(old.colOff[u+1])
		if len(del) == 0 && len(add) == 0 && !p.dirty[u] {
			colOff[u] = int32(c + lo - pos)
			continue
		}
		c += copy(col[c:], old.col[pos:lo])
		colOff[u] = int32(c)
		pos = end
		if p.dirty[u] {
			c += copy(col[c:], add)
			continue
		}
		p.walked += len(del)
		run := old.col[lo:end]
		i := 0
		for len(del) > 0 || len(add) > 0 {
			if len(del) > 0 && (len(add) == 0 || del[0] <= add[0]) {
				j, _ := slices.BinarySearch(run[i:], del[0])
				j += i
				c += copy(col[c:], run[i:j])
				i, del = j+1, del[1:]
				continue
			}
			j, _ := slices.BinarySearch(run[i:], add[0])
			j += i
			c += copy(col[c:], run[i:j])
			col[c] = add[0]
			c, i, add = c+1, j, add[1:]
		}
		c += copy(col[c:], run[i:])
	}
	c += copy(col[c:], old.col[pos:])
	colOff[n] = int32(c)
	p.idx.colOff, p.idx.col = colOff, col
}

// edgeEdit is a kept edge that a patch added, removed or reweighted: its
// endpoints, whether it was kept before and is now, and its weight now.
type edgeEdit struct {
	u, v      int32
	was, keep bool
	w         float64
}

// edits lists the kept edges that changed against st's, in canonical
// order. Only a regenerated or vanished pair, or one whose side bit a
// re-ranked endpoint flipped (flips, ascending indices in pairs), can
// have changed: every other pair keeps its score and both side bits.
func (p *patch) edits(flips []int32, ws *Workspace) []edgeEdit {
	st, pairs := p.st, p.pairs
	edits := reuse.Slice(ws.edits, 0, len(p.changed)+len(flips))
	check := func(w, i int) {
		keep := w >= 0 && (p.topU[w] || p.topV[w])
		was := i >= 0 && (st.topU[i] || st.topV[i])
		if keep == was && (!keep || p.sims[w] == st.sims[i]) {
			return
		}
		e := edgeEdit{was: was, keep: keep}
		if w >= 0 {
			e.u, e.v, e.w = pairs[w][0], pairs[w][1], p.sims[w]
		} else {
			e.u, e.v = st.pairs[i][0], st.pairs[i][1]
		}
		edits = append(edits, e)
	}
	// A flipped pair is one of two clean entities, a changed one is not:
	// the two lists merge by key without a tie.
	p.walked += len(p.changed) + len(flips)
	ch := p.changed
	for len(ch) > 0 || len(flips) > 0 {
		if len(flips) == 0 || len(ch) > 0 && p.key(ch[0]) < pairKey(&pairs[flips[0]]) {
			check(int(ch[0][0]), int(ch[0][1]))
			ch = ch[1:]
			continue
		}
		w := int(flips[0])
		flips = flips[1:]
		check(w, pairAt(st.pairs, p.old.rowOff, pairs[w][0], pairs[w][1]))
	}
	ws.edits = edits
	return edits
}

// key is the canonical key of a changed record.
func (p *patch) key(c [2]int32) uint64 {
	if c[0] >= 0 {
		return pairKey(&p.pairs[c[0]])
	}
	return pairKey(&p.st.pairs[c[1]])
}

// pairKey is a pair's canonical sort key.
func pairKey(q *[2]int32) uint64 { return uint64(uint32(q[0]))<<32 | uint64(uint32(q[1])) }

// csr materializes the next frozen CSR from st's and the edge edits:
// every row without one (adjacency, weights and cached weighted degree)
// moves as one copy per maximal run, and a dirty row is its previous
// span with its edits applied, block copies between them, its weighted
// degree folded over the new span in neighbour order — canonical pair
// order, as wgraph.FromEdges folds it. The blocked total weight sums the
// new CSR's upper triangle in row order, which is the canonical order of
// the kept pairs; it is never incremental (block boundaries shift with
// any edge), but it streams the CSR's weights, not the pairs. It returns
// the CSR, the dirty rows ascending and the kept edge count.
func (p *patch) csr(prev *wgraph.CSR, edits []edgeEdit, ws *Workspace) (*wgraph.CSR, []int32, int, error) {
	n := p.n
	pOff, pNbrs, pWts := prev.Adj()
	kv := reuse.Slice(ws.kv, 0, 2*len(edits))
	for k := range edits {
		kv = append(kv, [2]int32{edits[k].u, int32(k)}, [2]int32{edits[k].v, int32(k)})
	}
	// The regenerated pairs' offsets are spent: the edits' take their place.
	eOff := p.genOff
	byRow := group(kv, eOff, reuse.Grow(ws.eRow, len(kv)))
	ws.kv, ws.eRow = kv, byRow
	kept := prev.NumEdges()
	offsets := make([]int32, n+1)
	var at int32
	dirtyRows := make([]int32, 0, min(n, len(kv)))
	for r := 0; r < n; r++ {
		offsets[r] = at
		at += pOff[r+1] - pOff[r]
		if eOff[r] == eOff[r+1] {
			continue
		}
		dirtyRows = append(dirtyRows, int32(r))
		for _, k := range byRow[eOff[r]:eOff[r+1]] {
			if e := &edits[k]; e.keep != e.was {
				d := int32(1)
				if e.was {
					d = -1
				}
				at += d
				if e.u == int32(r) {
					kept += int(d)
				}
			}
		}
	}
	offsets[n] = at
	nbrs := make([]int32, at)
	wts := make([]float64, at)
	wdeg := make([]float64, n)
	clean := 0 // the first row of the clean run not yet copied
	copyClean := func(r int) {
		copy(nbrs[offsets[clean]:offsets[r]], pNbrs[pOff[clean]:pOff[r]])
		copy(wts[offsets[clean]:offsets[r]], pWts[pOff[clean]:pOff[r]])
		for c := clean; c < r; c++ {
			wdeg[c] = prev.WeightedDegree(int32(c))
		}
	}
	for _, r := range dirtyRows {
		copyClean(int(r))
		oldN, oldW := pNbrs[pOff[r]:pOff[r+1]], pWts[pOff[r]:pOff[r+1]]
		o, i := offsets[r], 0
		for _, k := range byRow[eOff[r]:eOff[r+1]] {
			e := &edits[k]
			v := e.v
			if v == r {
				v = e.u
			}
			j, _ := slices.BinarySearch(oldN[i:], v)
			j += i
			copy(nbrs[o:], oldN[i:j])
			copy(wts[o:], oldW[i:j])
			o, i = o+int32(j-i), j
			if e.was {
				i++ // the edge's previous entry
			}
			if e.keep {
				nbrs[o], wts[o] = v, e.w
				o++
			}
		}
		if o+int32(len(oldN)-i) != offsets[r+1] {
			return nil, nil, 0, fmt.Errorf("entitygraph: dirty row %d's edits disagree with its degree", r)
		}
		copy(nbrs[o:], oldN[i:])
		copy(wts[o:], oldW[i:])
		sum := 0.0
		for _, w := range wts[offsets[r]:offsets[r+1]] {
			sum += w
		}
		wdeg[r] = sum
		p.walked += len(oldN)
		clean = int(r) + 1
	}
	copyClean(n)
	sums := make([]float64, 0, kept/wgraph.WeightSumBlockSize)
	partial, bcnt := 0.0, 0
	for u := 0; u < n; u++ {
		k := offsets[u]
		for k < offsets[u+1] && nbrs[k] < int32(u) {
			k++
		}
		for _, w := range wts[k:offsets[u+1]] {
			partial += w
			if bcnt++; bcnt == wgraph.WeightSumBlockSize {
				sums = append(sums, partial)
				partial, bcnt = 0, 0
			}
		}
	}
	total := wgraph.FoldWeightBlocks(sums)
	if bcnt > 0 {
		total += partial
	}
	g, err := wgraph.FromParts(offsets, nbrs, wts, wdeg, total)
	return g, dirtyRows, kept, err
}

// emitCSR materializes a dense run's frozen CSR from the kept pairs. They
// arrive in canonical (U,V) order, so one ordered pass yields ascending
// neighbor lists, the canonical per-row weighted-degree fold order (a
// row's V-side addends precede its U-side addends) and the canonical
// blocked total-weight summation — every float byte-identical to
// wgraph.FromEdges over the same kept edges
// (TestEmitMatchesCanonicalBuilder). deg holds the row degrees and is
// used up as the fill cursors.
func emitCSR(n int, pairs [][2]int32, sims []float64, topU, topV []bool, deg []int32) (*wgraph.CSR, error) {
	offsets := make([]int32, n+1)
	var off int32
	for u := 0; u < n; u++ {
		offsets[u] = off
		off, deg[u] = off+deg[u], off
	}
	offsets[n] = off
	nbrs := make([]int32, off)
	wts := make([]float64, off)
	wdeg := make([]float64, n)
	cursor := deg
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
		p := cursor[u]
		nbrs[p], wts[p] = v, w
		cursor[u] = p + 1
		wdeg[u] += w
		p = cursor[v]
		nbrs[p], wts[p] = u, w
		cursor[v] = p + 1
		wdeg[v] += w
	}
	total := wgraph.FoldWeightBlocks(sums)
	if bcnt > 0 {
		total += partial
	}
	return wgraph.FromParts(offsets, nbrs, wts, wdeg, total)
}

// sameGraphSemantics reports whether two configs produce the same graph.
// Shards is inert and deliberately excluded, so retained state never
// depends on a width; the one width that varies the build, GOMAXPROCS,
// is not configuration at all.
func sameGraphSemantics(a, b Config) bool {
	return a.Alpha == b.Alpha && a.MinSimilarity == b.MinSimilarity &&
		a.TopK == b.TopK && a.MaxQueryFanout == b.MaxQueryFanout
}
