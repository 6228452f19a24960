package entitygraph

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/synth"
	"shoal/internal/wgraph"
	"shoal/internal/word2vec"
)

// referenceState is the map-based candidate generation and TopK ranking
// BuildWithState is checked against: a query→entities map, every pair
// of every uncapped query counted in a pair map, one materialized
// candidate list per node. Scores are taken from the state under test —
// scorePair is shared, the oracle is about which pairs exist, how often
// they were seen and which survive the ranking.
func referenceState(es *EntitySet, clicks *bipartite.Graph, cfg Config, sims []float64) (pairs [][2]int32, counts []int32, topU, topV []bool) {
	byQuery := map[model.QueryID][]int32{}
	for e := range es.Entities {
		seen := map[model.QueryID]bool{}
		for _, it := range es.Entities[e].Items {
			qs, _ := clicks.Row(it)
			for _, q := range qs {
				if !seen[q] {
					seen[q] = true
					byQuery[q] = append(byQuery[q], int32(e))
				}
			}
		}
	}
	seen := map[[2]int32]int32{}
	for _, ents := range byQuery {
		if cfg.MaxQueryFanout > 0 && len(ents) > cfg.MaxQueryFanout {
			continue
		}
		for i := range ents {
			for j := i + 1; j < len(ents); j++ {
				seen[[2]int32{ents[i], ents[j]}]++
			}
		}
	}
	for p := range seen {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	for _, p := range pairs {
		counts = append(counts, seen[p])
	}
	if len(sims) != len(pairs) {
		return pairs, counts, nil, nil
	}
	perNode := make([][]scored, len(es.Entities))
	for i, p := range pairs {
		if sims[i] < cfg.MinSimilarity {
			continue
		}
		perNode[p[0]] = append(perNode[p[0]], scored{other: p[1], sim: sims[i], idx: i})
		perNode[p[1]] = append(perNode[p[1]], scored{other: p[0], sim: sims[i], idx: i})
	}
	topU, topV = make([]bool, len(pairs)), make([]bool, len(pairs))
	for u := range perNode {
		rankNode(perNode[u], int32(u), pairs, topU, topV, cfg.TopK)
	}
	return pairs, counts, topU, topV
}

// TestBuildStateMatchesReference pins the counting-built full build to
// the map-based reference: same candidate pairs in the same order with
// the same shared-query counts (which pin the query→entity index they
// come out of), same per-side TopK verdicts — with the fanout cap biting and not, across
// worker counts.
func TestBuildStateMatchesReference(t *testing.T) {
	ctx := context.Background()
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
	es, err := BuildEntities(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	clicks := bipartite.New(0)
	if err := clicks.AddAll(c.Clicks); err != nil {
		t.Fatal(err)
	}
	for _, fanout := range []int{0, 12, 400} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("fanout%d-w%d", fanout, workers), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.MinSimilarity = 0.1
				cfg.TopK = 3
				cfg.MaxQueryFanout = fanout
				cfg.Workers = workers
				_, st, err := BuildWithState(ctx, es, clicks, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pairs, counts, topU, topV := referenceState(es, clicks, cfg, st.sims)
				if !slices.Equal(st.pairs, pairs) {
					t.Fatalf("candidate pairs differ: %d vs %d", len(st.pairs), len(pairs))
				}
				if len(pairs) == 0 {
					t.Fatal("no candidate pairs: the fixture tests nothing")
				}
				if !slices.Equal(st.counts, counts) {
					t.Fatal("shared-query counts differ")
				}
				if !slices.Equal(st.topU, topU) || !slices.Equal(st.topV, topV) {
					t.Fatal("TopK side bits differ")
				}
				for i, s := range st.sims {
					if math.IsNaN(s) {
						t.Fatalf("pair %d scored NaN", i)
					}
				}
			})
		}
	}
	// The cap must have skipped something at 12, or the capped case above
	// ran the uncapped path.
	capped, _, _, _ := referenceState(es, clicks, Config{MaxQueryFanout: 12}, nil)
	open, _, _, _ := referenceState(es, clicks, Config{}, nil)
	if len(capped) >= len(open) {
		t.Fatalf("fanout cap 12 skipped no query (%d vs %d pairs)", len(capped), len(open))
	}
}

// TestEmitMatchesCanonicalBuilder holds patchCSR's dense emit to the
// canonical builder: the CSR a full build emits equals wgraph.FromEdges
// over its own kept edges — adjacency arrays, every cached weighted degree
// and the blocked weight total, bit for bit. The last case keeps every
// candidate pair of a larger catalog, enough edges for the total to cross
// a summation block.
func TestEmitMatchesCanonicalBuilder(t *testing.T) {
	ctx := context.Background()
	es, clicks := oracleWorld(t)
	gen := synth.DefaultConfig()
	gen.Scenarios = 8
	gen.ItemsPerScenario = 60
	gen.QueriesPerScenario = 15
	gen.NoiseItems = 30
	gen.HeadQueries = 6
	big, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	bigES, err := BuildEntities(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	bigClicks := bipartite.New(0)
	if err := bigClicks.AddAll(big.Clicks); err != nil {
		t.Fatal(err)
	}
	sents := make([][]string, len(es.Entities))
	for i := range es.Entities {
		sents[i] = es.Entities[i].Tokens
	}
	w2v := word2vec.DefaultConfig()
	w2v.Dim, w2v.Epochs, w2v.MinCount = 12, 2, 1
	emb, err := word2vec.Train(ctx, sents, w2v)
	if err != nil {
		t.Fatal(err)
	}
	ranked := DefaultConfig()
	ranked.MinSimilarity, ranked.TopK = 0.1, 3
	every := DefaultConfig()
	every.MinSimilarity, every.TopK, every.MaxQueryFanout = 0, 0, 0
	for _, tc := range []struct {
		name     string
		es       *EntitySet
		clicks   *bipartite.Graph
		emb      *word2vec.Model
		cfg      Config
		minEdges int
	}{
		{"noemb", es, clicks, nil, ranked, 1},
		{"emb", es, clicks, emb, ranked, 1},
		{"every-pair", bigES, bigClicks, nil, every, wgraph.WeightSumBlockSize + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Build(ctx, tc.es, tc.clicks, tc.emb, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := res.Graph
			kept := g.Edges()
			if len(kept) < tc.minEdges {
				t.Fatalf("%d kept edges, the case wants at least %d", len(kept), tc.minEdges)
			}
			want, err := wgraph.FromEdges(g.NumNodes(), kept)
			if err != nil {
				t.Fatal(err)
			}
			go_, gn, gw := g.Adj()
			wo, wn, ww := want.Adj()
			if !slices.Equal(go_, wo) || !slices.Equal(gn, wn) {
				t.Fatal("adjacency differs from wgraph.FromEdges over the kept edges")
			}
			for i := range gw {
				if math.Float64bits(gw[i]) != math.Float64bits(ww[i]) {
					t.Fatalf("weight %d = %v, FromEdges %v", i, gw[i], ww[i])
				}
			}
			for u := int32(0); int(u) < g.NumNodes(); u++ {
				if math.Float64bits(g.WeightedDegree(u)) != math.Float64bits(want.WeightedDegree(u)) {
					t.Fatalf("wdeg[%d] = %v, FromEdges %v", u, g.WeightedDegree(u), want.WeightedDegree(u))
				}
			}
			if math.Float64bits(g.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
				t.Fatalf("total weight %v, FromEdges %v", g.TotalWeight(), want.TotalWeight())
			}
		})
	}
}
