package entitygraph

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/synth"
)

// requireSameState asserts two retained states are equal array for array:
// pairs, score bits, side bits and each node's K-th candidate.
func requireSameState(t *testing.T, tag string, got, want *IncState) {
	t.Helper()
	if !slices.Equal(got.pairs, want.pairs) {
		t.Fatalf("%s: retained pairs differ (%d vs %d)", tag, len(got.pairs), len(want.pairs))
	}
	for i := range got.sims {
		if math.Float64bits(got.sims[i]) != math.Float64bits(want.sims[i]) {
			t.Fatalf("%s: pair %v scored %v, want %v", tag, got.pairs[i], got.sims[i], want.sims[i])
		}
	}
	for i := range got.topU {
		if got.topU[i] != want.topU[i] || got.topV[i] != want.topV[i] {
			t.Fatalf("%s: pair %v side bits (%v,%v), want (%v,%v)", tag, got.pairs[i],
				got.topU[i], got.topV[i], want.topU[i], want.topV[i])
		}
	}
	if !slices.Equal(got.kth, want.kth) {
		t.Fatalf("%s: K-th candidates differ", tag)
	}
	requireIndexMatchesPairs(t, tag, got)
}

// requireIndexMatchesPairs holds a state's retained index to one read
// off its pairs from scratch.
func requireIndexMatchesPairs(t *testing.T, tag string, st *IncState) {
	t.Helper()
	rowOff, colOff := make([]int32, st.n+1), make([]int32, st.n+1)
	cols := make([][]int32, st.n)
	for _, p := range st.pairs {
		rowOff[p[0]+1]++
		colOff[p[1]+1]++
		cols[p[1]] = append(cols[p[1]], p[0])
	}
	prefixSum(rowOff)
	prefixSum(colOff)
	if !slices.Equal(st.idx.rowOff, rowOff) || !slices.Equal(st.idx.colOff, colOff) ||
		!slices.Equal(st.idx.col, slices.Concat(cols...)) {
		t.Fatalf("%s: the retained pair index differs from one laid out over the pairs", tag)
	}
}

// wideRerank ranks nst's pairs by the rule the K-th bar replaced: every
// endpoint of a candidate pair, at any score, that appeared, vanished or
// changed score between the reference populations before and after
// re-ranks, and every other node keeps the side bits st gave it. It
// returns the side bits and the number of nodes ranked over a non-empty
// candidate list.
func wideRerank(st, nst *IncState, before, after refCandidates, cfg Config) (topU, topV []bool, ranked int) {
	rank := make([]bool, nst.n)
	i := 0
	for j, p := range after.pairs {
		for ; i < len(before.pairs) && pairKey(&before.pairs[i]) < pairKey(&p); i++ {
			rank[before.pairs[i][0]], rank[before.pairs[i][1]] = true, true // vanished
		}
		if i < len(before.pairs) && before.pairs[i] == p {
			same := before.sims[i] == after.sims[j]
			i++
			if same {
				continue
			}
		}
		rank[p[0]], rank[p[1]] = true, true // new or re-scored
	}
	for ; i < len(before.pairs); i++ {
		rank[before.pairs[i][0]], rank[before.pairs[i][1]] = true, true
	}
	topU, topV = make([]bool, len(nst.pairs)), make([]bool, len(nst.pairs))
	i = 0
	for j, p := range nst.pairs {
		for ; i < len(st.pairs) && pairKey(&st.pairs[i]) < pairKey(&p); i++ {
		}
		if i < len(st.pairs) && st.pairs[i] == p && st.sims[i] == nst.sims[j] {
			topU[j], topV[j] = st.topU[i], st.topV[i]
		}
	}
	lists := make([][]scored, nst.n)
	for j, p := range nst.pairs {
		for side, u := range p {
			if !rank[u] {
				continue
			}
			if side == 0 {
				topU[j] = false
			} else {
				topV[j] = false
			}
			lists[u] = append(lists[u], scored{other: p[1-side], sim: nst.sims[j], idx: j})
		}
	}
	for u, lst := range lists {
		if len(lst) > 0 {
			ranked++
			rankNode(lst, int32(u), nst.pairs, topU, topV, cfg.TopK)
		}
	}
	return topU, topV, ranked
}

// checkNarrowRank holds one patch (st → nst) to the wide rule and to a
// from-scratch build over the same clicks: equal side bits, the CSR the
// wide bits emit equal to the patch's, and the whole state equal to the
// full build's. before is the reference population of the clicks st was
// built over. It returns the nodes each rule ranked.
func checkNarrowRank(t *testing.T, tag string, es *EntitySet, clicks *bipartite.Graph, cfg Config,
	before refCandidates, st, nst *IncState, res *Result, delta *Delta) (narrow, wide int) {
	t.Helper()
	full, fullSt, err := BuildWithState(context.Background(), es, clicks, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, tag+" vs Build", res, full)
	requireSameState(t, tag+" vs Build", nst, fullSt)
	if delta.DenseFallback {
		return delta.RankedNodes, delta.RankedNodes
	}
	topU, topV, wide := wideRerank(st, nst, before, referenceCandidates(es, clicks, nil, cfg), cfg)
	if !slices.Equal(topU, nst.topU) || !slices.Equal(topV, nst.topV) {
		t.Fatalf("%s: the narrow patch's side bits differ from the wide rule's", tag)
	}
	deg := make([]int32, nst.n)
	for j, p := range nst.pairs {
		if topU[j] || topV[j] {
			deg[p[0]]++
			deg[p[1]]++
		}
	}
	g, err := emitCSR(nst.n, nst.pairs, nst.sims, topU, topV, deg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, tag+" wide CSR", &Result{Graph: g, QuerySets: nst.querySets}, res)
	return delta.RankedNodes, wide
}

// TestNarrowRankMatchesWideRule holds the K-th-bar re-rank to the rule it
// replaced — every endpoint of a new, vanished or re-scored pair re-ranks
// — on every day of the 8-day slide suite and every step of
// TestPatchDegradesIntoFullBuild's sweep: the same side bits and CSR, and
// a state equal to a from-scratch build's, K-th candidates included. On
// every patch the narrow rule ranks a subset of the wide rule's nodes, so
// never more of them, and over the low-churn patches (a tenth of the
// entities dirty or fewer) strictly fewer in total.
func TestNarrowRankMatchesWideRule(t *testing.T) {
	ctx := context.Background()
	// tally holds one patch's counts to the subset bound and adds a
	// low-churn patch's to the totals.
	var lowNarrow, lowWide int
	tally := func(t *testing.T, tag string, es *EntitySet, delta *Delta, narrow, wide int) {
		t.Helper()
		t.Logf("%s: %d dirty entities, ranked %d (wide rule %d)", tag, delta.DirtyEntities, narrow, wide)
		if narrow > wide {
			t.Errorf("%s: the narrow rule ranked %d nodes, the wide one %d", tag, narrow, wide)
		}
		if !delta.DenseFallback && delta.DirtyEntities > 0 && delta.DirtyEntities*10 <= len(es.Entities) {
			lowNarrow += narrow
			lowWide += wide
		}
	}
	requireFewer := func(t *testing.T) {
		t.Helper()
		t.Logf("low-churn patches: the narrow rule ranked %d nodes, the wide one %d", lowNarrow, lowWide)
		if lowWide == 0 || lowNarrow >= lowWide {
			t.Fatalf("low-churn patches: the narrow rule ranked %d nodes, the wide one %d", lowNarrow, lowWide)
		}
		lowNarrow, lowWide = 0, 0
	}

	t.Run("slide", func(t *testing.T) {
		c := synth.Curated()
		es, err := BuildEntities(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MinSimilarity = 0.15
		days := slideDays(c, 8)
		clicks := bipartite.New(4)
		var st *IncState
		var before refCandidates
		for d, day := range days {
			if err := clicks.AddAll(day); err != nil {
				t.Fatal(err)
			}
			res, nst, delta, err := BuildIncremental(ctx, es, clicks, nil, cfg, st, clicks.TakeChangedItems())
			if err != nil {
				t.Fatal(err)
			}
			if st != nil {
				tag := fmt.Sprintf("day %d", d)
				narrow, wide := checkNarrowRank(t, tag, es, clicks, cfg, before, st, nst, res, delta)
				tally(t, tag, es, delta, narrow, wide)
			}
			st, before = nst, referenceCandidates(es, clicks, nil, cfg)
		}
		requireFewer(t)
	})

	t.Run("sweep", func(t *testing.T) {
		sw := newChurnSweep(t)
		cfg := DefaultConfig()
		_, st0, err := BuildWithState(ctx, sw.es, sw.base, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := referenceCandidates(sw.es, sw.base, nil, cfg)
		for _, k := range sw.steps {
			clicks, dirty := sw.slide(t, k)
			res, nst, delta, err := BuildIncremental(ctx, sw.es, clicks, nil, cfg, st0, dirty)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%d churn clicks", k)
			narrow, wide := checkNarrowRank(t, tag, sw.es, clicks, cfg, before, st0, nst, res, delta)
			tally(t, tag, sw.es, delta, narrow, wide)
		}
		requireFewer(t)
	})
}

// boundaryWorld is a catalog of one item per entity (item e is entity e)
// whose click graph gives entity e exactly the query set sets[e].
func boundaryWorld(t *testing.T, sets [][]model.QueryID) (*EntitySet, *bipartite.Graph) {
	t.Helper()
	es := &EntitySet{Entities: make([]Entity, len(sets)), ItemEntity: make([]model.EntityID, len(sets))}
	clicks := bipartite.New(0)
	for e, qs := range sets {
		es.Entities[e] = Entity{ID: model.EntityID(e), Items: []model.ItemID{model.ItemID(e)}}
		es.ItemEntity[e] = model.EntityID(e)
		for _, q := range qs {
			if err := clicks.Add(model.ClickEvent{Query: q, Item: model.ItemID(e), Count: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return es, clicks
}

// TestNarrowRankBoundaries patches a hand-built graph across each edge of
// the re-rank rule and checks the patch against a from-scratch Build,
// state and CSR. Without embeddings a pair's score is the Jaccard of the
// two query sets, so the sets fix every score. Hub 0 holds queries 0-11;
// with TopK 2 its top two are (6/12, entity 2) and (4/12, entity 3),
// entity 4 ties the K-th on score and loses on id, and entities 1 and 5
// touch the hub at 1/12. Entities 6 and 7 are a pair of their own, each
// with fewer than K candidates; 8-15 are four more such pairs, so a
// one-entity change stays under the density gate; 16 and 17 are one more,
// whose Jaccard is exactly 2/8. RankedNodes pins who re-ranked where the
// rule, not just the output, is the point.
func TestNarrowRankBoundaries(t *testing.T) {
	qs := func(lo, hi int, more ...model.QueryID) []model.QueryID {
		var out []model.QueryID
		for q := lo; q <= hi; q++ {
			out = append(out, model.QueryID(q))
		}
		return append(out, more...)
	}
	base := [][]model.QueryID{
		qs(0, 11),    // 0: the hub
		{8},          // 1: 1/12 with the hub
		qs(0, 5),     // 2: 6/12
		qs(0, 3),     // 3: 4/12, the hub's K-th
		qs(4, 7),     // 4: 4/12, after the K-th on id
		{9},          // 5: 1/12
		{30, 31},     // 6: 2/3 with 7, nothing else
		{30, 31, 32}, // 7
		{50, 51},     // 8-15: four isolated pairs
		{50, 51},     //
		{52, 53},     //
		{52, 53},     //
		{54, 55},     //
		{54, 55},     //
		{56, 57},     //
		{56, 57, 58}, //
		qs(60, 64),   // 16: 2/8 with 17
		qs(63, 67),   // 17
	}
	es, clicks := boundaryWorld(t, base)
	// patch builds base under minSim and topK, patches entity to set and
	// holds the patch to checkNarrowRank, which returns the wide rule's count.
	patch := func(t *testing.T, tag string, minSim float64, topK, entity int, set []model.QueryID) (st, nst *IncState, delta *Delta, wide int) {
		t.Helper()
		ctx := context.Background()
		cfg := DefaultConfig()
		cfg.MinSimilarity, cfg.TopK, cfg.MaxQueryFanout = minSim, topK, 0
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		_, st, err := BuildWithState(ctx, es, clicks, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		after := slices.Clone(base)
		after[entity] = set
		_, afterClicks := boundaryWorld(t, after)
		res, nst, delta, err := BuildIncremental(ctx, es, afterClicks, nil, cfg, st, []model.ItemID{model.ItemID(entity)})
		if err != nil {
			t.Fatal(err)
		}
		if delta.DenseFallback || delta.DirtyEntities != 1 {
			t.Fatalf("delta %+v, want a one-entity patch", delta)
		}
		_, wide = checkNarrowRank(t, tag, es, afterClicks, cfg, referenceCandidates(es, clicks, nil, cfg), st, nst, res, delta)
		return st, nst, delta, wide
	}
	for _, tc := range []struct {
		name    string
		minSim  float64
		topK    int
		entity  int
		set     []model.QueryID
		ranked  int // Delta.RankedNodes, -1: not pinned
		comment string
	}{
		{"tie-other-below", 0.01, 2, 1, qs(8, 11), 3,
			"(4/12, 1) ties the hub's K-th (4/12, 3) and wins on id: the hub, 1 and 5 (new pair 1-5) re-rank"},
		{"tie-other-above", 0.01, 2, 5, qs(8, 11), 2,
			"(4/12, 5) ties the K-th and loses on id: only 5 and 1 (new pair 1-5) re-rank, not the hub"},
		{"fewer-than-k-gains", 0.01, 2, 1, []model.QueryID{8, 32}, 2,
			"7 has one candidate: new pair (1, 7) at 1/4 enters its top K; the hub's pair with 1 moves within the tail below its K-th, so the hub does not re-rank"},
		{"kept-pair-vanishes", 0.01, 2, 2, []model.QueryID{20, 21}, 3,
			"the hub's best pair vanishes with 2's pairs to 3 and 4: the hub re-ranks and 4 enters"},
		{"drops-below-min", 0.2, 2, 2, []model.QueryID{0, 20, 21, 22}, 3,
			"(0, 2) falls from 6/12 to 1/15 under MinSimilarity"},
		{"rises-into-top-k", 0.2, 2, 1, qs(5, 11), -1,
			"(0, 1) rises from 1/12 under MinSimilarity to 7/12, the hub's best"},
		{"no-cap", 0.01, 0, 1, qs(8, 11), -1,
			"TopK 0: every node's K-th is the sentinel, so any changed pair above MinSimilarity re-ranks both endpoints"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, delta, wide := patch(t, tc.comment, tc.minSim, tc.topK, tc.entity, tc.set)
			if tc.ranked >= 0 && delta.RankedNodes != tc.ranked {
				t.Errorf("%s: %d nodes re-ranked, want %d (wide rule: %d)", tc.comment, delta.RankedNodes, tc.ranked, wide)
			}
		})
	}

	// Exactly at MinSimilarity: (16, 17) scores 2/8 = 0.25, the threshold
	// itself, so the build keeps it. A patch elsewhere — entity 1 taking
	// queries 8-11, which adds the kept edges (0, 1) at 4/12 and (1, 5) at
	// 1/4, itself exactly at the threshold, and re-ranks 0, 1 and 5 — leaves
	// it standing. Entity 17 losing query 64 drops it to 1/8: it is
	// regenerated, filtered, and reads as vanished, the one changed edge.
	atMin := func(st *IncState) (sim float64, kept bool) {
		at := slices.Index(st.pairs, [2]int32{16, 17})
		if at < 0 {
			return 0, false
		}
		return st.sims[at], st.topU[at] || st.topV[at]
	}
	for _, tc := range []struct {
		name     string
		entity   int
		set      []model.QueryID
		survives bool
		ranked   int
		edges    int
		rows     []int32
	}{
		{"at-min-survives", 1, qs(8, 11), true, 3, 2, []int32{0, 1, 5}},
		{"at-min-drops", 17, []model.QueryID{63, 65, 66, 67}, false, 0, 1, []int32{16, 17}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const minSim = 0.25
			st, nst, delta, _ := patch(t, tc.name, minSim, 2, tc.entity, tc.set)
			if sim, kept := atMin(st); sim != minSim || !kept {
				t.Fatalf("the build scored (16, 17) %v, kept %v; want exactly %v, kept", sim, kept, minSim)
			}
			sim, kept := atMin(nst)
			if kept != tc.survives || (kept && sim != minSim) {
				t.Fatalf("after the patch (16, 17) scores %v, kept %v; want kept = %v", sim, kept, tc.survives)
			}
			if delta.RankedNodes != tc.ranked || delta.ChangedEdges != tc.edges || !slices.Equal(delta.DirtyRows, tc.rows) {
				t.Fatalf("delta: %d nodes ranked, %d changed edges, dirty rows %v; want %d, %d, %v",
					delta.RankedNodes, delta.ChangedEdges, delta.DirtyRows, tc.ranked, tc.edges, tc.rows)
			}
		})
	}
}
