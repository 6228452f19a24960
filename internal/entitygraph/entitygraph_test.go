package entitygraph

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/synth"
	"shoal/internal/textutil"
	"shoal/internal/word2vec"
)

func TestPriceBand(t *testing.T) {
	if priceBand(0) != 0 || priceBand(-5) != 0 {
		t.Fatal("non-positive prices should band to 0")
	}
	if priceBand(100) != priceBand(120) {
		t.Fatal("near prices should share a band")
	}
	if priceBand(100) == priceBand(100000) {
		t.Fatal("far prices should not share a band")
	}
	// Monotone non-decreasing.
	prev := -1
	for p := int64(1); p < 1_000_000; p *= 2 {
		b := priceBand(p)
		if b < prev {
			t.Fatalf("priceBand not monotone at %d", p)
		}
		prev = b
	}
}

func TestBuildEntitiesGroups(t *testing.T) {
	c := &model.Corpus{
		Categories: []model.Category{{ID: 0, Name: "Dress", Parent: model.RootCategory}},
		Items: []model.Item{
			{ID: 0, Title: "beach dress", Category: 0, PriceCents: 1000, Attrs: []string{"color=red", "size=m"}},
			{ID: 1, Title: "beach dress 2", Category: 0, PriceCents: 1050, Attrs: []string{"size=m", "color=red"}},
			{ID: 2, Title: "beach dress 3", Category: 0, PriceCents: 99000, Attrs: []string{"color=red", "size=m"}},
			{ID: 3, Title: "other dress", Category: 0, PriceCents: 1000, Attrs: []string{"color=blue"}},
		},
	}
	es, err := BuildEntities(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// Items 0,1: same cat, same attrs (order-insensitive), same band -> one entity.
	if es.ItemEntity[0] != es.ItemEntity[1] {
		t.Fatal("items 0,1 should share an entity")
	}
	if es.ItemEntity[0] == es.ItemEntity[2] {
		t.Fatal("items 0,2 differ in price band but share an entity")
	}
	if es.ItemEntity[0] == es.ItemEntity[3] {
		t.Fatal("items 0,3 differ in attrs but share an entity")
	}
	if len(es.Entities) != 3 {
		t.Fatalf("entities = %d, want 3", len(es.Entities))
	}
	e := es.Entities[es.ItemEntity[0]]
	if e.Size() != 2 {
		t.Fatalf("entity size = %d, want 2", e.Size())
	}
	if len(e.Tokens) == 0 {
		t.Fatal("entity has no title tokens")
	}
}

func TestBuildEntitiesMajorityScenario(t *testing.T) {
	c := &model.Corpus{
		Categories: []model.Category{{ID: 0, Name: "X", Parent: model.RootCategory}},
		Items: []model.Item{
			{ID: 0, Title: "a", Category: 0, PriceCents: 100, Scenario: 2},
			{ID: 1, Title: "b", Category: 0, PriceCents: 100, Scenario: 2},
			{ID: 2, Title: "c", Category: 0, PriceCents: 100, Scenario: 1},
		},
	}
	es, err := BuildEntities(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(es.Entities) != 1 {
		t.Fatalf("entities = %d, want 1", len(es.Entities))
	}
	if es.Entities[0].Scenario != 2 {
		t.Fatalf("majority scenario = %d, want 2", es.Entities[0].Scenario)
	}
}

func TestBuildEntitiesInvalidCorpus(t *testing.T) {
	c := &model.Corpus{Items: []model.Item{{ID: 5}}}
	if _, err := BuildEntities(context.Background(), c); err == nil {
		t.Fatal("BuildEntities accepted invalid corpus")
	}
}

// buildFixture builds a corpus with two clear co-click communities and
// returns the graph result.
func buildFixture(t *testing.T, cfg Config) *Result {
	t.Helper()
	c := synth.Curated()
	es, err := BuildEntities(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	clicks := bipartite.New(0)
	if err := clicks.AddAll(c.Clicks); err != nil {
		t.Fatal(err)
	}
	var sentences [][]string
	for _, it := range c.Items {
		sentences = append(sentences, textutil.Tokenize(it.Title))
	}
	w2vCfg := word2vec.DefaultConfig()
	w2vCfg.MinCount = 1
	w2vCfg.Epochs = 4
	emb, err := word2vec.Train(context.Background(), sentences, w2vCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(context.Background(), es, clicks, emb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildGraphSeparatesScenarios(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinSimilarity = 0.15
	res := buildFixture(t, cfg)
	if res.Graph.NumEdges() == 0 {
		t.Fatal("graph has no edges")
	}
	// Edges within a scenario should be stronger on average than across.
	var inSum, outSum float64
	var inN, outN int
	for _, e := range res.Graph.Edges() {
		su := res.Set.Entities[e.U].Scenario
		sv := res.Set.Entities[e.V].Scenario
		if su == sv && su != model.NoScenario {
			inSum += e.W
			inN++
		} else {
			outSum += e.W
			outN++
		}
	}
	if inN == 0 {
		t.Fatal("no within-scenario edges")
	}
	inAvg := inSum / float64(inN)
	outAvg := 0.0
	if outN > 0 {
		outAvg = outSum / float64(outN)
	}
	if inAvg <= outAvg {
		t.Fatalf("within-scenario avg %.3f not above cross %.3f", inAvg, outAvg)
	}
}

func TestBuildGraphSimilarityBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinSimilarity = 0
	res := buildFixture(t, cfg)
	for _, e := range res.Graph.Edges() {
		if e.W < 0 || e.W > 1+1e-9 || math.IsNaN(e.W) {
			t.Fatalf("edge (%d,%d) weight %f outside [0,1]", e.U, e.V, e.W)
		}
	}
}

func TestBuildGraphMinSimilarityFilter(t *testing.T) {
	loose := buildFixture(t, Config{Alpha: 0.7, MinSimilarity: 0.05, TopK: 0})
	tight := buildFixture(t, Config{Alpha: 0.7, MinSimilarity: 0.6, TopK: 0})
	if tight.Graph.NumEdges() >= loose.Graph.NumEdges() {
		t.Fatalf("tight filter kept %d edges, loose %d", tight.Graph.NumEdges(), loose.Graph.NumEdges())
	}
	for _, e := range tight.Graph.Edges() {
		if e.W < 0.6 {
			t.Fatalf("edge below MinSimilarity survived: %f", e.W)
		}
	}
}

func TestBuildGraphTopK(t *testing.T) {
	capped := buildFixture(t, Config{Alpha: 0.7, MinSimilarity: 0.05, TopK: 2})
	// TopK keeps an edge if it's in either endpoint's top-2, so a node's
	// degree can exceed 2 but should stay small; degree must never
	// exceed NumNodes-1, and most importantly capped <= uncapped.
	uncapped := buildFixture(t, Config{Alpha: 0.7, MinSimilarity: 0.05, TopK: 0})
	if capped.Graph.NumEdges() > uncapped.Graph.NumEdges() {
		t.Fatal("TopK increased edge count")
	}
	if capped.Graph.NumEdges() == 0 {
		t.Fatal("TopK removed everything")
	}
}

func TestBuildNilEmbedding(t *testing.T) {
	c := synth.Curated()
	es, err := BuildEntities(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	clicks := bipartite.New(0)
	if err := clicks.AddAll(c.Clicks); err != nil {
		t.Fatal(err)
	}
	res, err := Build(context.Background(), es, clicks, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() == 0 {
		t.Fatal("nil-embedding graph has no edges")
	}
}

func TestBuildConfigValidation(t *testing.T) {
	c := synth.Curated()
	es, _ := BuildEntities(context.Background(), c)
	clicks := bipartite.New(0)
	_ = clicks.AddAll(c.Clicks)
	bad := []Config{
		{Alpha: -0.1},
		{Alpha: 1.1},
		{Alpha: 0.5, MinSimilarity: -1},
		{Alpha: 0.5, MinSimilarity: 2},
		{Alpha: 0.5, TopK: -1},
		{Alpha: 0.5, MaxQueryFanout: -2},
	}
	for i, cfg := range bad {
		if _, err := Build(context.Background(), es, clicks, nil, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Build(context.Background(), nil, clicks, nil, DefaultConfig()); err == nil {
		t.Error("nil entity set accepted")
	}
}

func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	// The embedding is trained once and shared: the comparison varies
	// only the graph construction's worker count.
	c := synth.Curated()
	es, err := BuildEntities(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	clicks := bipartite.New(0)
	if err := clicks.AddAll(c.Clicks); err != nil {
		t.Fatal(err)
	}
	var sentences [][]string
	for _, it := range c.Items {
		sentences = append(sentences, textutil.Tokenize(it.Title))
	}
	w2vCfg := word2vec.DefaultConfig()
	w2vCfg.MinCount = 1
	emb, err := word2vec.Train(context.Background(), sentences, w2vCfg)
	if err != nil {
		t.Fatal(err)
	}
	build := func(procs int) *Result {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Build(context.Background(), es, clicks, emb, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := build(1), build(4)
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ across worker counts: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

// TestStateIdenticalAcrossWorkerCounts holds the whole retained state —
// pairs, score bits, side bits, K-th candidates — and the CSR to the
// worker count, on a catalog where every worker's kept pairs of a dense
// build fill more than one chunk, so rows cross chunk boundaries in the
// copy: the dense build, and a patch on top of it.
func TestStateIdenticalAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	gen := synth.DefaultConfig()
	gen.Scenarios = 24
	gen.ItemsPerScenario = 60
	gen.QueriesPerScenario = 15
	gen.NoiseItems = 30
	gen.HeadQueries = 6
	c, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	es, err := BuildEntities(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	// The base window holds all but every 13th click; the patch adds the
	// first quarter of those back.
	var base, held []model.ClickEvent
	for i, ev := range c.Clicks {
		if i%13 == 0 {
			held = append(held, ev)
		} else {
			base = append(base, ev)
		}
	}
	held = held[:len(held)/4]
	var firstSt, firstNst *IncState
	var firstRes, firstPatch *Result
	var firstDelta *Delta
	for _, workers := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MinSimilarity = 0.1
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			clicks := bipartite.New(0)
			if err := clicks.AddAll(base); err != nil {
				t.Fatal(err)
			}
			clicks.TakeChangedItems()
			res, st, err := BuildWithState(ctx, es, clicks, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Dense rows are the entities themselves: worker w takes the
			// rows a ≡ w (mod workers), whose pairs (a, b > a) it keeps.
			per := make([]int, workers)
			for _, p := range st.pairs {
				per[int(p[0])%workers]++
			}
			if slices.Min(per) <= chunkLen {
				t.Fatalf("kept pairs per worker %v: some worker fills no more than one chunk of %d", per, chunkLen)
			}
			if err := clicks.AddAll(held); err != nil {
				t.Fatal(err)
			}
			patched, nst, delta, err := BuildIncremental(ctx, es, clicks, nil, cfg, st, clicks.TakeChangedItems())
			if err != nil {
				t.Fatal(err)
			}
			if delta.DenseFallback || delta.ChangedEdges == 0 {
				t.Fatalf("delta %+v, want a patch that changes edges", delta)
			}
			if firstSt == nil {
				_, full, err := BuildWithState(ctx, es, clicks, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameState(t, "patch vs Build", nst, full)
				firstSt, firstNst, firstRes, firstPatch, firstDelta = st, nst, res, patched, delta
				return
			}
			requireSameGraph(t, "dense build", res, firstRes)
			requireSameState(t, "dense build", st, firstSt)
			requireSameGraph(t, "patch", patched, firstPatch)
			requireSameState(t, "patch", nst, firstNst)
			if delta.RankedNodes != firstDelta.RankedNodes || delta.ChangedEdges != firstDelta.ChangedEdges ||
				!slices.Equal(delta.DirtyRows, firstDelta.DirtyRows) {
				t.Fatalf("delta %+v, one worker's %+v", delta, firstDelta)
			}
		})
	}
}

// Property: meanNormVector output has length <= 1 (mean of unit vectors).
func TestMeanNormVectorBounded(t *testing.T) {
	sents := [][]string{{"a", "b", "c", "a"}, {"b", "c", "d"}, {"a", "d", "e"}}
	cfg := word2vec.DefaultConfig()
	cfg.MinCount = 1
	cfg.Epochs = 2
	emb, err := word2vec.Train(context.Background(), sents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"a", "b", "c", "d", "e", "zz"}
	f := func(picks []uint8) bool {
		toks := make([]string, 0, len(picks))
		for _, p := range picks {
			toks = append(toks, words[int(p)%len(words)])
		}
		m := meanNormVector(emb, toks)
		if m == nil {
			return true
		}
		var n float64
		for _, x := range m {
			n += float64(x) * float64(x)
		}
		return math.Sqrt(n) <= 1+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
