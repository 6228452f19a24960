package entitygraph

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/synth"
)

// sortRankNode is the full-sort TopK rankNode replaced: order the whole
// list (sim desc, other asc), stamp the first k and return the k-th
// (noKth if there are fewer). Kept here as the reference the selection
// is checked against.
func sortRankNode(lst []scored, u int32, pairs [][2]int32, topU, topV []bool, k int) kthBest {
	slices.SortFunc(lst, func(a, b scored) int {
		if a.sim != b.sim {
			if a.sim > b.sim {
				return -1
			}
			return 1
		}
		return int(a.other) - int(b.other)
	})
	bar := noKth
	if k > 0 && k <= len(lst) {
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

// TestRankNodeSelectsLikeSort pins the bounded-insertion selection to the
// full sort it replaced: same side bits and the same K-th candidate on
// randomized incidence lists with heavily tied similarities, node u on
// either side of its pairs, at every k around the list length.
func TestRankNodeSelectsLikeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const u = int32(1000)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		pairs := make([][2]int32, n)
		lst := make([]scored, n)
		for i, o := range rng.Perm(2 * int(u))[:n] { // distinct others, below and above u
			other := int32(o)
			if other >= u {
				other++
			}
			pairs[i] = [2]int32{min(u, other), max(u, other)}
			// Few distinct values: most ranks are decided by the tie-break.
			lst[i] = scored{other: other, sim: float64(rng.Intn(5)) / 4, idx: i}
		}
		for _, k := range []int{0, 1, DefaultConfig().TopK, n - 1, n, n + 1} {
			wantU, wantV := make([]bool, n), make([]bool, n)
			wantBar := sortRankNode(slices.Clone(lst), u, pairs, wantU, wantV, k)
			gotU, gotV := make([]bool, n), make([]bool, n)
			gotBar := rankNode(slices.Clone(lst), u, pairs, gotU, gotV, k)
			if !slices.Equal(gotU, wantU) || !slices.Equal(gotV, wantV) {
				t.Fatalf("trial %d, %d candidates, k=%d: side bits differ from the full sort\n got U %v V %v\nwant U %v V %v",
					trial, n, k, gotU, gotV, wantU, wantV)
			}
			if gotBar != wantBar {
				t.Fatalf("trial %d, %d candidates, k=%d: K-th %+v, the full sort's %+v", trial, n, k, gotBar, wantBar)
			}
		}
	}
}

// oracleWorld is the corpus of TestBuildStateMatchesReference: entities
// and an unwindowed click graph.
func oracleWorld(t testing.TB) (*EntitySet, *bipartite.Graph) {
	t.Helper()
	gen := synth.DefaultConfig()
	gen.Scenarios = 6
	gen.ItemsPerScenario = 50
	gen.QueriesPerScenario = 12
	gen.NoiseItems = 25
	gen.HeadQueries = 5
	c, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	es, err := BuildEntities(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	clicks := bipartite.New(0)
	if err := clicks.AddAll(c.Clicks); err != nil {
		t.Fatal(err)
	}
	return es, clicks
}

// TestMeanVectorsComputedOnce pins the mean-vector cache on the entity
// set, norms beside: one computation per model, shared by every later
// caller — the first callers may arrive together — and redone for another
// model. The means, which read the text plane's title ids, equal
// meanNormVector of every entity's Tokens bit for bit.
func TestMeanVectorsComputedOnce(t *testing.T) {
	es, _ := oracleWorld(t)
	emb := oracleEmbedding(t, es)

	var wg sync.WaitGroup
	first := make([][][]float32, 4)
	for i := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first[i], _ = es.meanVectors(emb, nil)
		}()
	}
	wg.Wait()
	means, norms := es.meanVectors(emb, nil)
	for i, m := range first {
		if &m[0] != &means[0] {
			t.Fatalf("concurrent caller %d got its own mean vectors", i)
		}
	}
	if len(means) != len(es.Entities) {
		t.Fatalf("%d mean vectors for %d entities", len(means), len(es.Entities))
	}
	withMean := 0
	for e := range es.Entities {
		want := meanNormVector(emb, es.Entities[e].Tokens)
		if (means[e] == nil) != (want == nil) || !slices.EqualFunc(means[e], want, func(a, b float32) bool {
			return math.Float32bits(a) == math.Float32bits(b)
		}) {
			t.Fatalf("entity %d: cached mean %v, from its tokens %v", e, means[e], want)
		}
		if want != nil {
			withMean++
		}
	}
	if withMean == 0 {
		t.Fatal("no entity has a mean vector")
	}
	for e, m := range means {
		if want := math.Sqrt(dot(m, m)); norms[e] != want {
			t.Fatalf("entity %d: cached norm %v, the mean's %v", e, norms[e], want)
		}
	}

	other := trainTiny(t)
	if again, _ := es.meanVectors(other, nil); &again[0] == &means[0] {
		t.Fatal("mean vectors of one model served for another")
	}
	none, _ := es.meanVectors(nil, nil)
	if len(none) != len(es.Entities) {
		t.Fatalf("nil model: %d mean vectors for %d entities", len(none), len(es.Entities))
	}
	for e, m := range none {
		if m != nil {
			t.Fatalf("nil model: entity %d has a mean vector", e)
		}
	}
	if again, _ := es.meanVectors(nil, nil); &again[0] != &none[0] {
		t.Fatal("nil-model mean vectors recomputed")
	}
}

// TestFullBuildAllocs keeps the full build's allocation count at one
// query-set slice per entity plus a fixed number of arrays (222 for 169
// entities and 325 items here): no per-item query set, no per-node
// candidate list, no recomputed mean vectors.
func TestFullBuildAllocs(t *testing.T) {
	es, clicks := oracleWorld(t)
	emb := trainTiny(t)
	cfg := DefaultConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	build := func() {
		if _, _, err := BuildWithState(ctx, es, clicks, emb, cfg); err != nil {
			t.Fatal(err)
		}
	}
	build() // the one build that computes the mean vectors
	ceiling := float64(len(es.Entities) + 100)
	if allocs := testing.AllocsPerRun(5, build); allocs > ceiling {
		t.Errorf("full build allocated %.0f objects for %d entities (%d items), want <= %.0f",
			allocs, len(es.Entities), len(es.ItemEntity), ceiling)
	}
}

// TestPatchAllocs holds a BuildIncremental to the same shape: a fixed
// number of arrays plus one query-set slice per dirty entity — nothing
// per changed query, per pair or per node — whether three queries moved
// or a quarter of them, so a slide allocates like a build that skipped
// the clean entities.
func TestPatchAllocs(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, every := range []int{24, 4} {
		es, clicks := oracleWorld(t)
		clicks.TakeChangedItems()
		res, st, err := BuildWithState(ctx, es, clicks, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Every every-th query clicks an item of an entity it had not reached.
		var slide []model.ClickEvent
		numQ := 0
		for _, qs := range res.QuerySets {
			for _, q := range qs {
				numQ = max(numQ, int(q)+1)
			}
		}
		for q := 0; q < numQ; q += every {
			it := q * 5 % len(es.ItemEntity)
			for slices.Contains(res.QuerySets[es.ItemEntity[it]], model.QueryID(q)) {
				it = (it + 1) % len(es.ItemEntity)
			}
			slide = append(slide, model.ClickEvent{Query: model.QueryID(q), Item: model.ItemID(it), Count: 1})
		}
		if err := clicks.AddAll(slide); err != nil {
			t.Fatal(err)
		}
		dirty := clicks.TakeChangedItems()
		var delta *Delta
		patch := func() {
			if _, _, delta, err = BuildIncremental(ctx, es, clicks, nil, cfg, st, dirty); err != nil {
				t.Fatal(err)
			}
		}
		patch()
		if delta.DenseFallback || delta.DirtyEntities < len(slide)/2 || len(delta.DirtyRows) == 0 {
			t.Fatalf("%d clicks: delta %+v, want a patch", len(slide), delta)
		}
		ceiling := float64(delta.DirtyEntities + 100)
		if allocs := testing.AllocsPerRun(5, patch); allocs > ceiling {
			t.Errorf("a patch of %d entities (%d changed queries) allocated %.0f objects, want <= %.0f",
				delta.DirtyEntities, len(slide), allocs, ceiling)
		}
	}
}
