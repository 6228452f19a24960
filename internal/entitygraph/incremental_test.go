package entitygraph

import (
	"context"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/synth"
	"shoal/internal/textutil"
	"shoal/internal/word2vec"
)

// slideDays spreads the corpus clicks over `days` synthetic days with a
// production-shaped delta profile: most click pairs recur every day (the
// stable window mass — their counts shift on a slide but their membership
// does not), while a rotating tail of events exists on a single day each,
// so each slide perturbs a small set of items in both directions (the
// newly ingested day and the evicted one).
func slideDays(c *model.Corpus, days int32) [][]model.ClickEvent {
	out := make([][]model.ClickEvent, days)
	for d := int32(0); d < days; d++ {
		for i, ev := range c.Clicks {
			if i%7 == 0 && int32(i/7)%days != d {
				continue // rotating tail event, lives on one day only
			}
			ev.Day = d
			out[d] = append(out[d], ev)
		}
	}
	return out
}

// requireSameGraph asserts two sharded CSRs are byte-identical: arrays,
// cached floats and shard plan.
func requireSameGraph(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	ao, an, aw := a.Graph.BaseCSR().Adj()
	bo, bn, bw := b.Graph.BaseCSR().Adj()
	if len(ao) != len(bo) || len(an) != len(bn) {
		t.Fatalf("%s: shape differs: %d/%d rows, %d/%d entries", tag, len(ao), len(bo), len(an), len(bn))
	}
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("%s: offsets[%d] = %d vs %d", tag, i, ao[i], bo[i])
		}
	}
	for i := range an {
		if an[i] != bn[i] || aw[i] != bw[i] {
			t.Fatalf("%s: entry %d = (%d,%v) vs (%d,%v)", tag, i, an[i], aw[i], bn[i], bw[i])
		}
	}
	if a.Graph.TotalWeight() != b.Graph.TotalWeight() {
		t.Fatalf("%s: total weight %v vs %v", tag, a.Graph.TotalWeight(), b.Graph.TotalWeight())
	}
	n := a.Graph.NumNodes()
	for u := 0; u < n; u++ {
		if a.Graph.WeightedDegree(int32(u)) != b.Graph.WeightedDegree(int32(u)) {
			t.Fatalf("%s: wdeg[%d] = %v vs %v", tag, u,
				a.Graph.WeightedDegree(int32(u)), b.Graph.WeightedDegree(int32(u)))
		}
	}
	ap, bp := a.Graph.Plan(), b.Graph.Plan()
	if ap.NumShards() != bp.NumShards() {
		t.Fatalf("%s: shard counts %d vs %d", tag, ap.NumShards(), bp.NumShards())
	}
	for i := 0; i < ap.NumShards(); i++ {
		alo, ahi := ap.Bounds(i)
		blo, bhi := bp.Bounds(i)
		if alo != blo || ahi != bhi {
			t.Fatalf("%s: shard %d bounds [%d,%d) vs [%d,%d)", tag, i, alo, ahi, blo, bhi)
		}
	}
	if len(a.QuerySets) != len(b.QuerySets) {
		t.Fatalf("%s: query-set counts differ", tag)
	}
	for e := range a.QuerySets {
		qa, qb := a.QuerySets[e], b.QuerySets[e]
		if len(qa) != len(qb) {
			t.Fatalf("%s: entity %d query set size %d vs %d", tag, e, len(qa), len(qb))
		}
		for i := range qa {
			if qa[i] != qb[i] {
				t.Fatalf("%s: entity %d query set differs at %d", tag, e, i)
			}
		}
	}
}

// TestIncrementalMatchesFullOverSlide is the package-level half of the
// tentpole invariant: sliding a multi-day window incrementally yields, at
// every step, a graph byte-identical to a from-scratch build over the
// same window — with and without embeddings, across worker/shard counts.
func TestIncrementalMatchesFullOverSlide(t *testing.T) {
	ctx := context.Background()
	c := synth.Curated()
	es, err := BuildEntities(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	days := slideDays(c, 10)
	const window = 4

	var sentences [][]string
	for _, it := range c.Items {
		sentences = append(sentences, textutil.Tokenize(it.Title))
	}
	w2vCfg := word2vec.DefaultConfig()
	w2vCfg.MinCount = 1
	w2vCfg.Workers = 1
	w2vCfg.Epochs = 2
	emb, err := word2vec.Train(ctx, sentences, w2vCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		emb     *word2vec.Model
		workers int
		shards  int
	}{
		{"noemb-w1-s1", nil, 1, 1},
		{"noemb-w4-s3", nil, 4, 3},
		{"emb-w2-s2", emb, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MinSimilarity = 0.15
			cfg.Workers = tc.workers
			cfg.Shards = tc.shards

			inc := bipartite.New(window)
			if err := inc.AddAll(days[0]); err != nil {
				t.Fatal(err)
			}
			inc.TakeChangedItems()
			_, st, err := BuildWithState(ctx, es, inc, tc.emb, cfg)
			if err != nil {
				t.Fatal(err)
			}

			sawPatch, sawEdgeChange := false, false
			for d := 1; d < len(days); d++ {
				if err := inc.AddAll(days[d]); err != nil {
					t.Fatal(err)
				}
				dirty := inc.TakeChangedItems()
				resInc, nst, delta, err := BuildIncremental(ctx, es, inc, tc.emb, cfg, st, dirty)
				if err != nil {
					t.Fatal(err)
				}
				st = nst
				if !delta.DenseFallback {
					sawPatch = true
					if delta.ChangedEdges > 0 {
						sawEdgeChange = true
					}
				}

				fullClicks := bipartite.New(window)
				for fd := 0; fd <= d; fd++ {
					if err := fullClicks.AddAll(days[fd]); err != nil {
						t.Fatal(err)
					}
				}
				resFull, err := Build(ctx, es, fullClicks, tc.emb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameGraph(t, tc.name+"/day", resInc, resFull)
			}
			if !sawPatch {
				t.Fatal("every slide fell back to the dense path; the patch path was never exercised")
			}
			if !sawEdgeChange {
				t.Fatal("no slide patched a kept edge; the CSR patch path was never exercised")
			}
		})
	}
}

func TestIncrementalUnusableStateFallsBack(t *testing.T) {
	ctx := context.Background()
	c := synth.Curated()
	es, err := BuildEntities(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	clicks := bipartite.New(0)
	if err := clicks.AddAll(c.Clicks); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	res, st, delta, err := BuildIncremental(ctx, es, clicks, nil, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.DenseFallback || delta.FallbackReason != FallbackNoState {
		t.Fatalf("nil state must force the dense fallback with reason %q, got %v %q",
			FallbackNoState, delta.DenseFallback, delta.FallbackReason)
	}
	if res == nil || st == nil || res.Graph.NumEdges() == 0 {
		t.Fatal("fallback did not produce a usable build")
	}

	// Changed graph semantics also invalidate the state.
	cfg2 := cfg
	cfg2.MinSimilarity = cfg.MinSimilarity / 2
	_, _, delta2, err := BuildIncremental(ctx, es, clicks, nil, cfg2, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !delta2.DenseFallback || delta2.FallbackReason != FallbackNoState {
		t.Fatalf("semantic config change must force the dense fallback with reason %q, got %v %q",
			FallbackNoState, delta2.DenseFallback, delta2.FallbackReason)
	}

	// So does another embedding model: retained scores and the set's mean
	// vectors would come from two models.
	_, stEmb, err := BuildWithState(ctx, es, clicks, trainTiny(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, delta3, err := BuildIncremental(ctx, es, clicks, trainTiny(t), cfg, stEmb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !delta3.DenseFallback || delta3.FallbackReason != FallbackNoState {
		t.Fatalf("a changed embedding model must force the dense fallback with reason %q, got %v %q",
			FallbackNoState, delta3.DenseFallback, delta3.FallbackReason)
	}
}

// TestIncrementalFallsBackBeforeThePairReplay drives the early gates. A
// high-churn slide — most queries each click one item they had not
// clicked before — dirties a minority of the entities, so the
// dirty-entity gate passes, but every touched query retracts and
// re-emits all of its candidate pairs: the replay would sort more signed
// entries than the full build has pairs. The build must take the dense
// path before paying for that, say why, and still match Build exactly.
func TestIncrementalFallsBackBeforeThePairReplay(t *testing.T) {
	ctx := context.Background()
	gen := synth.DefaultConfig()
	gen.Scenarios = 8
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
	cfg := DefaultConfig()
	clicks := bipartite.New(0)
	if err := clicks.AddAll(c.Clicks); err != nil {
		t.Fatal(err)
	}
	clicks.TakeChangedItems()
	_, st, err := BuildWithState(ctx, es, clicks, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// fresh picks an item query q has not clicked yet.
	fresh := func(q int) model.ItemID {
		it := model.ItemID((q*7 + 13) % len(c.Items))
		for clicks.ClickCount(model.QueryID(q), it) > 0 {
			it = (it + 1) % model.ItemID(len(c.Items))
		}
		return it
	}
	var churn []model.ClickEvent
	for q := range c.Queries {
		if q%3 != 0 {
			churn = append(churn, model.ClickEvent{Query: model.QueryID(q), Item: fresh(q), Day: 1, Count: 1})
		}
	}
	if err := clicks.AddAll(churn); err != nil {
		t.Fatal(err)
	}
	dirty := clicks.TakeChangedItems()
	if 2*len(dirty) >= len(es.Entities) {
		t.Fatalf("%d dirty items over %d entities would trip the dirty-entity gate first", len(dirty), len(es.Entities))
	}
	res, nst, delta, err := BuildIncremental(ctx, es, clicks, nil, cfg, st, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.DenseFallback || delta.FallbackReason != FallbackPairDeltaVolume {
		t.Fatalf("fallback = %v, reason %q; want the %q gate", delta.DenseFallback, delta.FallbackReason, FallbackPairDeltaVolume)
	}
	if delta.DirtyItems != len(dirty) || delta.DirtyEntities == 0 {
		t.Fatalf("delta lost the counts known before the gate: %+v", delta)
	}
	if delta.ChangedPairs != 0 || delta.ChangedEdges != 0 || delta.DirtyRows != nil {
		t.Fatalf("delta reports replay results the early exit never computed: %+v", delta)
	}
	full, err := Build(ctx, es, clicks, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, "pair-delta-volume", res, full)

	// The state the fallback returns is a full build's: patching a small
	// delta on top of it works and matches again.
	one := []model.ClickEvent{{Query: 0, Item: fresh(0), Day: 2, Count: 1}}
	if err := clicks.AddAll(one); err != nil {
		t.Fatal(err)
	}
	res, _, delta, err = BuildIncremental(ctx, es, clicks, nil, cfg, nst, clicks.TakeChangedItems())
	if err != nil {
		t.Fatal(err)
	}
	if delta.DenseFallback || delta.DirtyEntities != 1 {
		t.Fatalf("a one-click slide: fallback %v (%q), %d dirty entities; want a one-entity patch",
			delta.DenseFallback, delta.FallbackReason, delta.DirtyEntities)
	}
	if full, err = Build(ctx, es, clicks, nil, cfg); err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, "patch-after-fallback", res, full)

	// Every item dirty: the cheapest gate answers.
	all := make([]model.ItemID, len(c.Items))
	for i := range all {
		all[i] = model.ItemID(i)
	}
	if _, _, delta, err = BuildIncremental(ctx, es, clicks, nil, cfg, nst, all); err != nil {
		t.Fatal(err)
	}
	if !delta.DenseFallback || delta.FallbackReason != FallbackDirtyEntities {
		t.Fatalf("fallback = %v, reason %q; want the %q gate", delta.DenseFallback, delta.FallbackReason, FallbackDirtyEntities)
	}
}
