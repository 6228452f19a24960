package entitygraph

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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

// requireSameGraph asserts two builds' CSRs are byte-identical — arrays
// and cached floats — and their query sets equal.
func requireSameGraph(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	ao, an, aw := a.Graph.Adj()
	bo, bn, bw := b.Graph.Adj()
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
// same window — with and without embeddings, across worker counts.
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
	w2vCfg.Epochs = 2
	emb, err := word2vec.Train(ctx, sentences, w2vCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		emb     *word2vec.Model
		workers int
	}{
		// The -sN suffixes are the shard widths these cases also varied
		// until internal/shard was deleted; the names stay so the suite's
		// test ids do.
		{"noemb-w1-s1", nil, 1},
		{"noemb-w4-s3", nil, 4},
		{"emb-w2-s2", emb, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MinSimilarity = 0.15
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.workers))

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

	// A width does not: Shards selects nothing, so a state retained under
	// one value of it is patched under another. One click — query 0 on an
	// item of an entity it had not reached — patches and matches Build.
	cfg1, cfg3 := cfg, cfg
	cfg1.Shards, cfg3.Shards = 1, 3
	clicks.TakeChangedItems()
	res1, st1, err := BuildWithState(ctx, es, clicks, nil, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	it := 0
	for slices.Contains(res1.QuerySets[es.ItemEntity[it]], 0) {
		it++
	}
	if err := clicks.AddAll([]model.ClickEvent{{Query: 0, Item: model.ItemID(it), Count: 1}}); err != nil {
		t.Fatal(err)
	}
	res3, _, delta4, err := BuildIncremental(ctx, es, clicks, nil, cfg3, st1, clicks.TakeChangedItems())
	if err != nil {
		t.Fatal(err)
	}
	if delta4.DenseFallback {
		t.Fatalf("a config differing only in Shards threw the retained state away (%q)", delta4.FallbackReason)
	}
	full, err := Build(ctx, es, clicks, nil, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, "shards 1 -> 3", res3, full)
}

// TestPatchDegradesIntoFullBuild sweeps one catalog's slide from a single
// click to every item dirty, each step's clicks a superset of the one
// before. The patch must match Build at every step, on either side of
// the one density gate; the gate must fire exactly where more than
// PatchDensityGate of the retained pairs have a dirty endpoint, hence
// once along the sweep; a gated build still reports the counts known
// before the gate, and the state it returns is a full build's. Swept at
// the default fan-out cap and at one the churn pushes query runs across.
func TestPatchDegradesIntoFullBuild(t *testing.T) {
	ctx := context.Background()
	sw := newChurnSweep(t)
	es, base, churn, nq := sw.es, sw.base, sw.churn, sw.nq

	// runLens counts the entities each query reaches.
	runLens := func(querySets [][]model.QueryID) map[model.QueryID]int {
		lens := map[model.QueryID]int{}
		for _, qs := range querySets {
			for _, q := range qs {
				lens[q]++
			}
		}
		return lens
	}
	// At the default cap no query of this catalog is capped. The second
	// cap sits on the run of the last query the second step churns, so that
	// step's patch pushes the run across it (a run only grows here;
	// TestPatchFollowsFanoutCapFlips covers the way back), and with every
	// candidate pair kept as an edge each shared-query count shows in a
	// weight.
	probe, err := Build(ctx, es, base, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	capped := DefaultConfig()
	capped.MaxQueryFanout = runLens(probe.QuerySets)[churn[nq/16-1].Query]
	capped.MinSimilarity, capped.TopK = 0, 0
	for _, cfg := range []Config{DefaultConfig(), capped} {
		fanout := cfg.MaxQueryFanout
		t.Run(fmt.Sprintf("fanout%d", fanout), func(t *testing.T) {
			res0, st0, err := BuildWithState(ctx, es, base, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			flips, wasGated, crossed := 0, false, false
			var gated *IncState
			var gatedRes *Result
			var gatedClicks *bipartite.Graph
			for _, k := range sw.steps {
				clicks, dirty := sw.slide(t, k)
				res, nst, delta, err := BuildIncremental(ctx, es, clicks, nil, cfg, st0, dirty)
				if err != nil {
					t.Fatal(err)
				}
				full, err := Build(ctx, es, clicks, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameGraph(t, fmt.Sprintf("%d churn clicks", k), res, full)

				// What the gate looks at, recomputed from the two builds' outputs.
				// An entity regenerates its pairs when its query set moved or
				// one of its queries' runs crossed the cap.
				was, now := runLens(res0.QuerySets), runLens(full.QuerySets)
				moved := make([]bool, len(es.Entities))
				entities := 0
				for e := range moved {
					if moved[e] = !slices.Equal(full.QuerySets[e], res0.QuerySets[e]); moved[e] {
						entities++
					}
					for _, q := range full.QuerySets[e] {
						if (was[q] > fanout) != (now[q] > fanout) {
							moved[e] = true
							crossed = crossed || !delta.DenseFallback
						}
					}
				}
				stale := 0
				for _, p := range st0.pairs {
					if moved[p[0]] || moved[p[1]] {
						stale++
					}
				}
				want := float64(stale) > PatchDensityGate*float64(len(st0.pairs))
				if delta.DenseFallback != want {
					t.Fatalf("%d churn clicks: %d of %d retained pairs have a dirty endpoint, fallback = %v (%q)",
						k, stale, len(st0.pairs), delta.DenseFallback, delta.FallbackReason)
				}
				if delta.DirtyItems != len(dirty) || delta.DirtyEntities != entities {
					t.Fatalf("%d churn clicks: delta %+v, want %d dirty items and %d dirty entities", k, delta, len(dirty), entities)
				}
				if want {
					if delta.FallbackReason != FallbackDirtyPairs || delta.ChangedEdges != 0 || delta.DirtyRows != nil {
						t.Fatalf("%d churn clicks: gated delta %+v, want reason %q and no patch counts", k, delta, FallbackDirtyPairs)
					}
					if gated == nil {
						gated, gatedRes, gatedClicks = nst, res, clicks
					}
				} else if delta.FallbackReason != "" || len(delta.DirtyRows) == 0 || delta.ChangedEdges == 0 {
					t.Fatalf("%d churn clicks: patch delta %+v, want dirty rows and changed edges", k, delta)
				}
				if want != wasGated {
					flips, wasGated = flips+1, want
				}
			}
			if flips != 1 || gated == nil {
				t.Fatalf("the gate flipped %d times along the sweep, want once (off, then on)", flips)
			}
			if crossed != (fanout != DefaultConfig().MaxQueryFanout) {
				t.Fatalf("cap %d: a patch saw a run cross the cap = %v", fanout, crossed)
			}

			// The state a gated build returns is a full build's: a one-click slide
			// on top of it — query 0 clicking an item of an entity it had not
			// reached — patches one entity and matches again.
			it := 0
			for slices.Contains(gatedRes.QuerySets[es.ItemEntity[it]], 0) {
				it++
			}
			one := []model.ClickEvent{{Query: 0, Item: model.ItemID(it), Day: 2, Count: 1}}
			if err := gatedClicks.AddAll(one); err != nil {
				t.Fatal(err)
			}
			res, _, delta, err := BuildIncremental(ctx, es, gatedClicks, nil, cfg, gated, gatedClicks.TakeChangedItems())
			if err != nil {
				t.Fatal(err)
			}
			if delta.DenseFallback || delta.DirtyEntities != 1 {
				t.Fatalf("a one-click slide: fallback %v (%q), %d dirty entities; want a one-entity patch",
					delta.DenseFallback, delta.FallbackReason, delta.DirtyEntities)
			}
			full, err := Build(ctx, es, gatedClicks, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, "patch-after-fallback", res, full)
		})
	}
}

// churnSweep is the catalog and the nested slide of
// TestPatchDegradesIntoFullBuild: the corpus clicks, then churn[:k] on
// top of them for each k of steps, from one click to every item dirty.
// The churn: every query clicks one item it had not clicked, then every
// item is clicked by one query that had not clicked it; nq is the length
// of the first part.
type churnSweep struct {
	c     *model.Corpus
	es    *EntitySet
	base  *bipartite.Graph
	churn []model.ClickEvent
	nq    int
	steps []int
}

// clicked reports whether query q has an in-window click into item it.
func clicked(g *bipartite.Graph, q model.QueryID, it model.ItemID) bool {
	qs, _ := g.Row(it)
	_, ok := slices.BinarySearch(qs, q)
	return ok
}

func newChurnSweep(t *testing.T) churnSweep {
	t.Helper()
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
	es, err := BuildEntities(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	base := bipartite.New(0)
	if err := base.AddAll(c.Clicks); err != nil {
		t.Fatal(err)
	}

	// fresh picks an item query q has not clicked in g, starting at from.
	fresh := func(g *bipartite.Graph, q, from int) model.ItemID {
		it := model.ItemID(from % len(c.Items))
		for clicked(g, model.QueryID(q), it) {
			it = (it + 1) % model.ItemID(len(c.Items))
		}
		return it
	}
	var churn []model.ClickEvent
	for q := range c.Queries {
		churn = append(churn, model.ClickEvent{Query: model.QueryID(q), Item: fresh(base, q, q*7+13), Day: 1, Count: 1})
	}
	nq := len(churn)
	for it := range c.Items {
		q := (it*3 + 1) % len(c.Queries)
		for clicked(base, model.QueryID(q), model.ItemID(it)) || churn[q].Item == model.ItemID(it) {
			q = (q + 1) % len(c.Queries)
		}
		churn = append(churn, model.ClickEvent{Query: model.QueryID(q), Item: model.ItemID(it), Day: 1, Count: 1})
	}
	steps := []int{1, nq / 16, nq / 8, nq / 4, nq / 2, 3 * nq / 4, nq, nq + len(c.Items)/2, len(churn)}
	return churnSweep{c: c, es: es, base: base, churn: churn, nq: nq, steps: steps}
}

// slide returns a fresh click graph holding the corpus clicks and
// churn[:k], with the items churn[:k] changed.
func (sw churnSweep) slide(t *testing.T, k int) (*bipartite.Graph, []model.ItemID) {
	t.Helper()
	clicks := bipartite.New(0)
	if err := clicks.AddAll(sw.c.Clicks); err != nil {
		t.Fatal(err)
	}
	clicks.TakeChangedItems()
	if err := clicks.AddAll(sw.churn[:k]); err != nil {
		t.Fatal(err)
	}
	return clicks, clicks.TakeChangedItems()
}

// TestPatchFollowsFanoutCapFlips moves one query's run across
// MaxQueryFanout, in both directions, by one entity joining or leaving
// it. Only that entity's query set changes, but every pair inside the run
// gains or loses a shared query — pairs of two clean entities included —
// and the patch must follow.
func TestPatchFollowsFanoutCapFlips(t *testing.T) {
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
	// A six-day window holding the corpus on day 5; a click on day 0 is
	// evicted by the first event of day 6.
	base := slices.Clone(c.Clicks)
	for i := range base {
		base[i].Day = 5
	}
	clicks := bipartite.New(6)
	if err := clicks.AddAll(base); err != nil {
		t.Fatal(err)
	}
	res0, err := Build(ctx, es, clicks, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runLen := func(r *Result, q model.QueryID) (n int) {
		for _, qs := range r.QuerySets {
			if slices.Contains(qs, q) {
				n++
			}
		}
		return n
	}
	// The cap sits exactly on the run of the query with the smallest run of
	// five entities or more; joiner is an item of an entity outside it.
	q, cap := model.QueryID(-1), len(es.Entities)
	for cand := range c.Queries {
		if l := runLen(res0, model.QueryID(cand)); l >= 5 && l < cap {
			q, cap = model.QueryID(cand), l
		}
	}
	joiner := model.ItemID(0)
	for slices.Contains(res0.QuerySets[es.ItemEntity[joiner]], q) {
		joiner++
	}
	// Every candidate pair is a kept edge, so every count shows in a weight.
	cfg := DefaultConfig()
	cfg.MaxQueryFanout = cap
	cfg.MinSimilarity = 0
	cfg.TopK = 0

	// Start over the cap: the joiner's click is in the window's oldest day.
	join := model.ClickEvent{Query: q, Item: joiner, Day: 0, Count: 1}
	if err := clicks.AddAll([]model.ClickEvent{join}); err != nil {
		t.Fatal(err)
	}
	clicks.TakeChangedItems()
	res, st, err := BuildWithState(ctx, es, clicks, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runLen(res, q); got != cap+1 {
		t.Fatalf("query %d reaches %d entities with the joiner, want %d", q, got, cap+1)
	}
	// Day 6 opens with a click the window already holds (no membership
	// change of its own) and evicts the joiner's: the run drops under the
	// cap. Then the joiner clicks again and the run is over it once more.
	again := base[0]
	again.Day = 6
	join.Day = 6
	for _, step := range []struct {
		name string
		ev   model.ClickEvent
		want int
	}{{"leaves", again, cap}, {"joins", join, cap + 1}} {
		if err := clicks.AddAll([]model.ClickEvent{step.ev}); err != nil {
			t.Fatal(err)
		}
		var delta *Delta
		res, st, delta, err = BuildIncremental(ctx, es, clicks, nil, cfg, st, clicks.TakeChangedItems())
		if err != nil {
			t.Fatal(err)
		}
		if got := runLen(res, q); got != step.want {
			t.Fatalf("%s: query %d reaches %d entities, want %d", step.name, q, got, step.want)
		}
		if delta.DenseFallback || delta.DirtyEntities != 1 {
			t.Fatalf("%s: fallback %v (%q), %d dirty entities; want a one-entity patch",
				step.name, delta.DenseFallback, delta.FallbackReason, delta.DirtyEntities)
		}
		full, err := Build(ctx, es, clicks, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, step.name, res, full)
	}
}

// TestBuildIncrementalLeavesStateReusable holds BuildIncremental to its
// read-only contract: called twice from one state, on a patch and on a
// dense fallback, it returns the same graph, delta and next state both
// times — and a workspace that takes the state over returns them too,
// also when its spare arrays come from an unrelated earlier build.
func TestBuildIncrementalLeavesStateReusable(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	es, clicks := oracleWorld(t)
	res, st, err := BuildWithState(ctx, es, clicks, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A patch: a few queries click an entity they had not reached. A
	// dense run: every click moves one query id over.
	patched := bipartite.New(0)
	shifted := bipartite.New(0)
	var dirty []model.ItemID
	for it := range es.ItemEntity {
		qs, ns := clicks.Row(model.ItemID(it))
		for j, q := range qs {
			if err := patched.Add(model.ClickEvent{Query: q, Item: model.ItemID(it), Count: ns[j]}); err != nil {
				t.Fatal(err)
			}
			if err := shifted.Add(model.ClickEvent{Query: q + 1, Item: model.ItemID(it), Count: ns[j]}); err != nil {
				t.Fatal(err)
			}
		}
		dirty = append(dirty, model.ItemID(it))
	}
	for q := 0; q < 40; q += 8 {
		it := model.ItemID(q * 5 % len(es.ItemEntity))
		for slices.Contains(res.QuerySets[es.ItemEntity[it]], model.QueryID(q)) {
			it = (it + 1) % model.ItemID(len(es.ItemEntity))
		}
		if err := patched.Add(model.ClickEvent{Query: model.QueryID(q), Item: it, Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var spare Workspace // warmed by a build of another window
	if _, _, _, err := spare.BuildIncremental(ctx, es, shifted, nil, cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		next  *bipartite.Graph
		dense bool
	}{{"patch", patched, false}, {"dense", shifted, true}} {
		r1, s1, d1, err := BuildIncremental(ctx, es, tc.next, nil, cfg, st, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if d1.DenseFallback != tc.dense {
			t.Fatalf("%s: delta %+v", tc.name, d1)
		}
		r2, s2, d2, err := BuildIncremental(ctx, es, tc.next, nil, cfg, st, dirty)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, tc.name+": second call", r2, r1)
		requireSameState(t, tc.name+": second call", s2, s1)
		if !reflect.DeepEqual(d2, d1) {
			t.Fatalf("%s: second call's delta %+v, first %+v", tc.name, d2, d1)
		}
		// The workspace consumes a copy of st, so st stays usable here.
		own := *st
		own.pairs, own.sims = slices.Clone(st.pairs), slices.Clone(st.sims)
		own.topU, own.topV, own.kth = slices.Clone(st.topU), slices.Clone(st.topV), slices.Clone(st.kth)
		r3, s3, d3, err := spare.BuildIncremental(ctx, es, tc.next, nil, cfg, &own, dirty)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, tc.name+": through a workspace", r3, r1)
		requireSameState(t, tc.name+": through a workspace", s3, s1)
		if !reflect.DeepEqual(d3, d1) {
			t.Fatalf("%s: the workspace's delta %+v, want %+v", tc.name, d3, d1)
		}
	}
}
