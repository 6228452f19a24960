package entitygraph

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/par"
	"shoal/internal/word2vec"
)

// pairWorld is two one-item entities that share `shared` queries and own
// ownA and ownB more, with their mean vectors under emb preset to ma and
// mb (emb itself is never consulted).
func pairWorld(t *testing.T, shared, ownA, ownB int, emb *word2vec.Model, ma, mb []float32) (*EntitySet, *bipartite.Graph) {
	t.Helper()
	es := &EntitySet{
		Entities:   []Entity{{ID: 0, Items: []model.ItemID{0}}, {ID: 1, Items: []model.ItemID{1}}},
		ItemEntity: []model.EntityID{0, 1},
	}
	es.means = [][]float32{ma, mb}
	es.norms = []float64{math.Sqrt(dot(ma, ma)), math.Sqrt(dot(mb, mb))}
	es.meansFor = emb
	var evs []model.ClickEvent
	q := model.QueryID(0)
	for range shared {
		evs = append(evs, model.ClickEvent{Query: q, Item: 0, Count: 1}, model.ClickEvent{Query: q, Item: 1, Count: 1})
		q++
	}
	for range ownA {
		evs = append(evs, model.ClickEvent{Query: q, Item: 0, Count: 1})
		q++
	}
	for range ownB {
		evs = append(evs, model.ClickEvent{Query: q, Item: 1, Count: 1})
		q++
	}
	clicks := bipartite.New(0)
	if err := clicks.AddAll(evs); err != nil {
		t.Fatal(err)
	}
	return es, clicks
}

// TestNormBoundBoundary locks the norm bound at its two edges, on pairs of
// hand-built entities whose mean vectors are parallel — Cauchy–Schwarz is
// tight, so the bound α·Sq + (1−α)(½ + ½‖u‖‖v‖) is the score itself up to
// rounding:
//   - with MinSimilarity set to a pair's exact score, the pair is kept
//     with those bits, although on some pairs the bound computed from the
//     norms comes out below the score (the dot rounds above the norms'
//     product), which only boundMargin absorbs;
//   - a pair whose bound lies exactly boundMargin below MinSimilarity is
//     scored, and one ulp of MinSimilarity higher its dot is skipped.
func TestNormBoundBoundary(t *testing.T) {
	ctx := context.Background()
	emb := new(word2vec.Model)
	rng := rand.New(rand.NewSource(24))
	cfg := DefaultConfig()
	tight := 0
	for trial := range 300 {
		m := make([]float32, 24)
		for i := range m {
			m[i] = float32(rng.Float64()*2 - 1)
		}
		scale := float32((0.05 + 0.95*rng.Float64()) / math.Sqrt(dot(m, m)))
		for i := range m {
			m[i] *= scale
		}
		mb := m
		if trial%3 == 1 {
			// Parallel at half the length: halving a float32 is exact.
			mb = make([]float32, len(m))
			for i, x := range m {
				mb[i] = x / 2
			}
		}
		shared, ownA, ownB := 1+rng.Intn(6), rng.Intn(6), rng.Intn(6)
		es, clicks := pairWorld(t, shared, ownA, ownB, emb, m, mb)
		querySets := [][]model.QueryID{make([]model.QueryID, shared+ownA), make([]model.QueryID, shared+ownB)}
		sq := jaccard(querySets, 0, 1, int32(shared))
		score := scorePair(querySets, es.means, cfg.Alpha, 0, 1, int32(shared))
		if blend(cfg.Alpha, sq, float64(es.norms[0]*es.norms[1])) < score {
			tight++
		}

		cfg.MinSimilarity = score
		res, err := Build(ctx, es, clicks, emb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e := res.Graph.Edges(); len(e) != 1 || math.Float64bits(e[0].W) != math.Float64bits(score) {
			t.Fatalf("trial %d: a pair scored exactly MinSimilarity %v was not kept with its score: edges %v", trial, score, e)
		}

		// MinSimilarity at which the pair's bound lies exactly boundMargin
		// below it, then one ulp higher.
		bound := blend(cfg.Alpha, sq, float64(es.norms[0]*es.norms[1]))
		minSim := bound + boundMargin
		for minSim-boundMargin < bound {
			minSim = math.Nextafter(minSim, 2)
		}
		for minSim-boundMargin > bound {
			minSim = math.Nextafter(minSim, -1)
		}
		if minSim-boundMargin != bound {
			t.Fatalf("trial %d: no MinSimilarity puts the bound %v exactly boundMargin below it", trial, bound)
		}
		for _, step := range []struct {
			minSim  float64
			bounded int
		}{{minSim, 0}, {math.Nextafter(minSim, 2), 1}} {
			cfg.MinSimilarity = step.minSim
			_, attrs := tracedBuild(t, es, clicks, emb, cfg)
			if got := attrs["candidates"]; got["scored"] != 1 || got["bounded"] != step.bounded {
				t.Fatalf("trial %d: bound %v, MinSimilarity %v: %d scored, %d bounded, want 1 and %d",
					trial, bound, step.minSim, got["scored"], got["bounded"], step.bounded)
			}
		}
	}
	if tight == 0 {
		t.Fatal("on no pair did the bound from the norms round below the score: boundMargin is untested")
	}
	t.Logf("%d of 300 pairs have a norm bound below their score", tight)
}

// TestBoundedCounter pins the candidates span's bounded count — the
// pairs whose dot the norm bound skipped — and the rank span's width:
// some pairs are bounded under DefaultConfig with embeddings, none
// without, never more than were scored, and rank splits into
// par.Width(entities) ranges.
func TestBoundedCounter(t *testing.T) {
	es, clicks := oracleWorld(t)
	emb := oracleEmbedding(t, es)
	for _, tc := range []struct {
		name string
		emb  *word2vec.Model
	}{{"emb", emb}, {"noemb", nil}} {
		_, attrs := tracedBuild(t, es, clicks, tc.emb, DefaultConfig())
		scored, bounded := attrs["candidates"]["scored"], attrs["candidates"]["bounded"]
		if _, ok := attrs["candidates"]["bounded"]; !ok || bounded > scored || (bounded > 0) != (tc.emb != nil) {
			t.Errorf("%s: %d of %d scored pairs bounded", tc.name, bounded, scored)
		}
		if w, want := attrs["rank"]["workers"], par.Width(len(es.Entities)); w != want {
			t.Errorf("%s: rank workers = %d, want %d", tc.name, w, want)
		}
	}
}
