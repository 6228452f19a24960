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
	"shoal/internal/obs"
	"shoal/internal/synth"
	"shoal/internal/wgraph"
	"shoal/internal/word2vec"
)

// refCandidates is a candidate population as the reference enumerates
// it: every pair sharing an uncapped query, at any score, in canonical
// order, with the score its shared-query count gives.
type refCandidates struct {
	pairs [][2]int32
	sims  []float64
}

// referenceCandidates is the map-based candidate generation the build is
// checked against: a query→entities map, every pair of every uncapped
// query counted in a pair map, each pair scored from its own count,
// query-set sizes and mean vectors (means[e] nil: no content signal;
// means nil: no embeddings) through the serial scorePair and its
// one-chain dot — no norm bound, no four-chain dot. The Eq. 3 expression
// is shared; the oracle is about which pairs exist, how often they were
// seen and which dots were taken.
func referenceCandidates(es *EntitySet, clicks *bipartite.Graph, means [][]float32, cfg Config) refCandidates {
	byQuery := map[model.QueryID][]int32{}
	querySets := make([][]model.QueryID, len(es.Entities))
	for e := range es.Entities {
		seen := map[model.QueryID]bool{}
		for _, it := range es.Entities[e].Items {
			qs, _ := clicks.Row(it)
			for _, q := range qs {
				if !seen[q] {
					seen[q] = true
					byQuery[q] = append(byQuery[q], int32(e))
					querySets[e] = append(querySets[e], q)
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
	if means == nil {
		means = make([][]float32, len(es.Entities))
	}
	var c refCandidates
	for p := range seen {
		c.pairs = append(c.pairs, p)
	}
	slices.SortFunc(c.pairs, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	for _, p := range c.pairs {
		c.sims = append(c.sims, scorePair(querySets, means, cfg.Alpha, p[0], p[1], seen[p]))
	}
	return c
}

// referenceState is the retained state the reference expects: its
// candidates filtered at MinSimilarity, ranked from one materialized
// candidate list per node. dropped counts the candidates the filter took.
func referenceState(es *EntitySet, clicks *bipartite.Graph, means [][]float32, cfg Config) (pairs [][2]int32, sims []float64, topU, topV []bool, dropped int) {
	c := referenceCandidates(es, clicks, means, cfg)
	for i, p := range c.pairs {
		if c.sims[i] < cfg.MinSimilarity {
			dropped++
			continue
		}
		pairs = append(pairs, p)
		sims = append(sims, c.sims[i])
	}
	perNode := make([][]scored, len(es.Entities))
	for i, p := range pairs {
		perNode[p[0]] = append(perNode[p[0]], scored{other: p[1], sim: sims[i], idx: i})
		perNode[p[1]] = append(perNode[p[1]], scored{other: p[0], sim: sims[i], idx: i})
	}
	topU, topV = make([]bool, len(pairs)), make([]bool, len(pairs))
	for u := range perNode {
		rankNode(perNode[u], int32(u), pairs, topU, topV, cfg.TopK)
	}
	return pairs, sims, topU, topV, dropped
}

// oracleEmbedding trains a small model on the entities' own title tokens,
// so most entities have a mean vector.
func oracleEmbedding(t testing.TB, es *EntitySet) *word2vec.Model {
	t.Helper()
	sents := make([][]string, len(es.Entities))
	for i := range es.Entities {
		sents[i] = es.Entities[i].Tokens
	}
	w2v := word2vec.DefaultConfig()
	w2v.Dim, w2v.Epochs, w2v.MinCount = 12, 2, 1
	emb, err := word2vec.Train(context.Background(), sents, w2v)
	if err != nil {
		t.Fatal(err)
	}
	return emb
}

// tracedBuild is BuildWithState under a trace. It also returns the
// integer attributes of the build's phase spans, by span name.
func tracedBuild(t testing.TB, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config) (*IncState, map[string]map[string]int) {
	t.Helper()
	tr := obs.NewTrace("test")
	root := tr.StartSpan("entity-graph")
	_, st, err := BuildWithState(obs.ContextWithSpan(context.Background(), root), es, clicks, emb, cfg)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]map[string]int{}
	for _, r := range tr.Records() {
		m := map[string]int{}
		for _, a := range r.Attrs {
			m[a.Key], _ = a.Value.(int)
		}
		attrs[r.Name] = m
	}
	return st, attrs
}

// TestBuildStateMatchesReference pins the counting-built full build to
// the map-based reference: the retained pairs are exactly the reference's
// candidates at or above MinSimilarity, in the same order, each scored
// bit for bit as the reference's own shared-query count and one-chain dot
// score it (which pins the query→entity index the counts come out of, the
// four-chain dot and the norm bound), with the same per-side TopK
// verdicts — with the fanout cap biting and not, across worker counts,
// with the filter dropping pairs, without embeddings and with them at a
// MinSimilarity the bound clears (0.25) and one it cuts below (0.35).
func TestBuildStateMatchesReference(t *testing.T) {
	es, clicks := oracleWorld(t)
	emb := oracleEmbedding(t, es)
	means, _ := es.meanVectors(emb, nil)
	// Each case states what it exercises: the MinSimilarity filter
	// dropping pairs, and the norm bound skipping dots. At 0.25 every
	// candidate of this fixture clears the filter and the bound, so every
	// dot runs through the chains.
	for _, tc := range []struct {
		name          string
		emb           *word2vec.Model
		means         [][]float32
		minSim        float64
		drops, bounds bool
	}{
		{"", nil, nil, 0.1, true, false}, // no embeddings
		{"emb-minsim0.25-", emb, means, 0.25, false, false},
		{"emb-minsim0.35-", emb, means, 0.35, true, true},
	} {
		for _, fanout := range []int{0, 12, 400} {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%sfanout%d-w%d", tc.name, fanout, workers), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.MinSimilarity = tc.minSim
					cfg.TopK = 3
					cfg.MaxQueryFanout = fanout
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
					st, attrs := tracedBuild(t, es, clicks, tc.emb, cfg)
					pairs, sims, topU, topV, dropped := referenceState(es, clicks, tc.means, cfg)
					if !slices.Equal(st.pairs, pairs) {
						t.Fatalf("retained pairs differ: %d vs %d", len(st.pairs), len(pairs))
					}
					bounded := attrs["candidates"]["bounded"]
					if len(pairs) == 0 || (dropped > 0) != tc.drops || (bounded > 0) != tc.bounds {
						t.Fatalf("%d pairs retained, %d dropped, %d dots bounded: the case tests something else", len(pairs), dropped, bounded)
					}
					for i := range sims {
						if math.Float64bits(st.sims[i]) != math.Float64bits(sims[i]) {
							t.Fatalf("pair %v scored %v, the reference %v", pairs[i], st.sims[i], sims[i])
						}
					}
					if !slices.Equal(st.topU, topU) || !slices.Equal(st.topV, topV) {
						t.Fatal("TopK side bits differ")
					}
				})
			}
		}
	}
	// The cap must have skipped something at 12, or the capped case above
	// ran the uncapped path.
	capped := referenceCandidates(es, clicks, nil, Config{MaxQueryFanout: 12})
	open := referenceCandidates(es, clicks, nil, Config{})
	if len(capped.pairs) >= len(open.pairs) {
		t.Fatalf("fanout cap 12 skipped no query (%d vs %d pairs)", len(capped.pairs), len(open.pairs))
	}
}

// TestEmitMatchesCanonicalBuilder holds emitCSR, the dense emit, to the
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
	emb := oracleEmbedding(t, es)
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
