package entitygraph

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/shard"
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
	// Workers parallelizes similarity computation; 0 means GOMAXPROCS.
	Workers int
	// Shards is the row-range shard count of the emitted CSR (the
	// partition-parallel unit downstream clustering schedules on); 0
	// means Workers.
	Shards int
}

// DefaultConfig mirrors the paper's demonstration settings.
func DefaultConfig() Config {
	return Config{
		Alpha:          0.7,
		MinSimilarity:  0.35,
		TopK:           10,
		MaxQueryFanout: 400,
		Workers:        0,
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
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = c.Workers
	}
	return nil
}

// Result bundles the entity graph with the entity metadata it was built
// over. The wgraph node ids equal entity ids. The graph is emitted
// directly in sharded frozen CSR form — the build path's sorted pair
// arrays are its natural input and the row-range shards are filled
// concurrently — so downstream clustering never touches a map and
// partition-parallel consumers get their shard plan for free.
type Result struct {
	Set   *EntitySet
	Graph *shard.CSR
	// QuerySets[e] is the sorted query-id set of entity e, the Qu of
	// Eq. 1. Exposed for description matching (§2.3).
	QuerySets [][]model.QueryID
}

// Build constructs the item entity graph:
//
//  1. union each entity's member-item query sets (from the bipartite
//     click graph),
//  2. enumerate candidate entity pairs through shared queries,
//  3. score Eq. 1 (Jaccard), Eq. 2 (embedding similarity via the trained
//     word2vec model; entities with no known words fall back to Sq), and
//     blend with Eq. 3,
//  4. filter by MinSimilarity and keep the TopK strongest edges per node.
//
// The embedding model may be nil, in which case Alpha is effectively 1.
// Cancellation is checked between construction phases and inside their
// loops. Under a traced context each phase is a child span of the
// caller's (query-sets, candidates, score, rank, emit).
func Build(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config) (*Result, error) {
	res, _, err := BuildWithState(ctx, es, clicks, emb, cfg)
	return res, err
}

// BuildWithState is Build, additionally returning the retained
// intermediate state (candidate pairs, scores, TopK side bits, query→
// entity index) that BuildIncremental patches on the next window slide.
// The state aliases the build's own arrays, so capturing it is free.
func BuildWithState(ctx context.Context, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config) (*Result, *IncState, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if es == nil || len(es.Entities) == 0 {
		return nil, nil, fmt.Errorf("entitygraph: empty entity set")
	}
	n := len(es.Entities)
	ph := phases{parent: obs.SpanFromContext(ctx)}
	defer ph.end()

	ph.next("query-sets")
	querySets := make([][]model.QueryID, n)
	var qbuf []model.QueryID
	numQ := 0 // one past the largest clicked query id
	for e := range es.Entities {
		qs := entityQuerySet(&es.Entities[e], clicks, &qbuf)
		querySets[e] = qs
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
	assoc := make([]uint64, qOff[numQ]) // query<<32 | entity, one per (entity, query)
	next := slices.Clone(qOff[:numQ])
	for e, qs := range querySets {
		for _, q := range qs {
			assoc[next[q]] = uint64(uint32(q))<<32 | uint64(uint32(e))
			next[q]++
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp := ph.next("candidates")
	// Candidate pairs via shared queries, with fanout cap, generated row
	// by row and count-then-fill: entity a's candidates are the entities
	// after it in the runs of its own queries, and a worker-local stamp
	// array collapses the duplicates (one per shared query) as they
	// appear, so the raw per-query pair lists — twice the distinct pairs
	// at catalog scale — are never materialized or sorted. The first pass
	// sizes each row, the second fills the exactly sized arrays at the row
	// offsets; rows are disjoint output spans, so the result is the
	// ascending canonical pair list whichever worker handled which row.
	partners := func(a int32, q model.QueryID) []uint64 {
		run := assoc[qOff[q]:qOff[q+1]]
		if cfg.MaxQueryFanout > 0 && len(run) > cfg.MaxQueryFanout {
			return nil
		}
		i, _ := slices.BinarySearch(run, uint64(uint32(q))<<32|uint64(uint32(a)))
		return run[i+1:]
	}
	// eachRow hands fn every entity a with its distinct partners b > a (in
	// first-seen order) and count[b], the queries a and b share; rows are
	// interleaved across workers (low rows have the most partners).
	eachRow := func(fn func(a int32, bs, count []int32)) {
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				stamp := make([]int32, n) // stamp[b] == a+1: b already seen in row a
				count := make([]int32, n) // valid where stamped
				var bs []int32
				var sinceCheck int
				for r := w; r < n; r += cfg.Workers {
					if sinceCheck++; sinceCheck >= 256 {
						sinceCheck = 0
						if ctx.Err() != nil {
							return
						}
					}
					a := int32(r)
					bs = bs[:0]
					for _, q := range querySets[a] {
						for _, x := range partners(a, q) {
							b := int32(uint32(x))
							if stamp[b] != a+1 {
								stamp[b] = a + 1
								count[b] = 0
								bs = append(bs, b)
							}
							count[b]++
						}
					}
					fn(a, bs, count)
				}
			}(w)
		}
		wg.Wait()
	}
	rowOff := make([]int, n+1) // pairs[rowOff[a]:rowOff[a+1]] are the (a, b>a)
	eachRow(func(a int32, bs, _ []int32) { rowOff[a+1] = len(bs) })
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for a := 0; a < n; a++ {
		rowOff[a+1] += rowOff[a]
	}
	pairs := make([][2]int32, rowOff[n])
	counts := make([]int32, rowOff[n])
	eachRow(func(a int32, bs, count []int32) {
		slices.Sort(bs)
		for i, b := range bs {
			pairs[rowOff[a]+i] = [2]int32{a, b}
			counts[rowOff[a]+i] = count[b]
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp.SetAttr("pairs", len(pairs))

	ph.next("score")
	means := es.meanVectors(emb)
	// Score all candidates in parallel; deterministic because each pair
	// is scored independently and written to its own slot.
	sims := make([]float64, len(pairs))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sinceCheck int
			for i := w; i < len(pairs); i += cfg.Workers {
				if sinceCheck++; sinceCheck >= 1024 {
					sinceCheck = 0
					if ctx.Err() != nil {
						return
					}
				}
				sims[i] = scorePair(querySets, means, emb != nil, cfg.Alpha,
					pairs[i][0], pairs[i][1], counts[i])
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	sp = ph.next("rank")
	// Filter + TopK sparsification. An edge survives TopK if it ranks in
	// the top K of *either* endpoint (keeping it in only-one direction
	// would break symmetry). The per-side survival bits are kept (not just
	// the union) so the incremental path can re-rank one endpoint without
	// recomputing the other's verdict.
	//
	// A node's incident candidates are its own row of pairs plus the pairs
	// of lower rows that name it second; only the latter need an index
	// (rev, a CSR of pair indices by second endpoint), and one reusable
	// list then ranks node after node.
	revOff := make([]int32, n+1)
	for i, p := range pairs {
		if sims[i] < cfg.MinSimilarity {
			continue
		}
		revOff[p[1]+1]++
	}
	for u := 0; u < n; u++ {
		revOff[u+1] += revOff[u]
	}
	rev := make([]int32, revOff[n])
	next = slices.Clone(revOff[:n])
	for i, p := range pairs {
		if sims[i] < cfg.MinSimilarity {
			continue
		}
		rev[next[p[1]]] = int32(i)
		next[p[1]]++
	}
	topU := make([]bool, len(pairs))
	topV := make([]bool, len(pairs))
	sp.SetAttr("pairsAboveMin", len(rev))
	var lst []scored
	nodesRanked := 0
	for u := 0; u < n; u++ {
		if u%256 == 255 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		lst = lst[:0]
		for _, i := range rev[revOff[u]:revOff[u+1]] {
			lst = append(lst, scored{other: pairs[i][0], sim: sims[i], idx: int(i)})
		}
		for i := rowOff[u]; i < rowOff[u+1]; i++ {
			if sims[i] < cfg.MinSimilarity {
				continue
			}
			lst = append(lst, scored{other: pairs[i][1], sim: sims[i], idx: i})
		}
		if len(lst) > 0 {
			nodesRanked++
			rankNode(lst, int32(u), pairs, topU, topV, cfg.TopK)
		}
	}
	sp.SetAttr("nodesRanked", nodesRanked)

	sp = ph.next("emit")
	// Emit sharded CSR directly: pairs are already canonical and sorted,
	// so the kept subset is a valid FromEdges input, and the row-range
	// shards are counted and filled concurrently.
	numKept := 0
	for i := range pairs {
		if topU[i] || topV[i] {
			numKept++
		}
	}
	kept := make([]wgraph.Edge, 0, numKept)
	for i, p := range pairs {
		if topU[i] || topV[i] {
			kept = append(kept, wgraph.Edge{U: p[0], V: p[1], W: sims[i]})
		}
	}
	g, err := shard.FromEdges(n, kept, cfg.Shards)
	if err != nil {
		return nil, nil, err
	}
	sp.SetAttr("kept", len(kept))

	st := &IncState{
		cfg:       cfg,
		n:         n,
		emb:       emb,
		querySets: querySets,
		assoc:     assoc,
		pairs:     pairs,
		counts:    counts,
		sims:      sims,
		topU:      topU,
		topV:      topV,
		graph:     g,
	}
	return &Result{Set: es, Graph: g, QuerySets: querySets}, st, nil
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

// entityQuerySet returns entity e's query set — the Qu of Eq. 1: the
// member items' query ids concatenated into the caller's reusable scratch
// buffer, sorted, and compacted into a fresh slice, so neither a
// per-entity seen map nor a per-item sorted slice exists. The full build
// and the patch both come through here.
func entityQuerySet(e *Entity, clicks *bipartite.Graph, scratch *[]model.QueryID) []model.QueryID {
	qbuf := (*scratch)[:0]
	for _, it := range e.Items {
		qbuf = clicks.AppendQuerySet(qbuf, it)
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

// rankNode stamps the side bit of the pairs ranking in the top K of node
// u's incident candidates (k = 0: all of them). The order is total, so the
// top-K set is unique and selecting it replaces sorting the list: lst[:k]
// holds the best k seen so far, in order, by bounded insertion, and one
// comparison against its last slot rejects most later candidates. lst is
// reordered; it must already be filtered by MinSimilarity. Both the full
// build and the incremental re-rank go through here, so their verdicts
// cannot drift.
func rankNode(lst []scored, u int32, pairs [][2]int32, topU, topV []bool, k int) {
	if k > 0 && k < len(lst) {
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
	}
	for _, c := range lst {
		if pairs[c.idx][0] == u {
			topU[c.idx] = true
		} else {
			topV[c.idx] = true
		}
	}
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
// from its shared-query count and the endpoint query-set sizes. Both the
// full build and the incremental rescore call it, so the float expression
// — and therefore every emitted bit — is shared between the two paths.
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
