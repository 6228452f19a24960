package entitygraph

import (
	"context"
	"slices"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/synth"
	"shoal/internal/word2vec"
)

// c30Window returns the c30 catalog, its entities and its clicks as one
// window with the changed items taken.
func c30Window(t *testing.T) (*model.Corpus, *EntitySet, *bipartite.Graph) {
	t.Helper()
	c, err := synth.Generate(synth.DefaultConfig())
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
	clicks.TakeChangedItems()
	return c, es, clicks
}

// dirtyOneItem clicks an item of the entity with the most retained pairs
// in st from a query the entity has not reached (the k-th from query 0 on
// that it has not), and returns the one changed item.
func dirtyOneItem(t *testing.T, c *model.Corpus, es *EntitySet, clicks *bipartite.Graph, st *IncState, k int) []model.ItemID {
	t.Helper()
	incident := make([]int, st.n)
	for _, p := range st.pairs {
		incident[p[0]]++
		incident[p[1]]++
	}
	e := slices.Index(incident, slices.Max(incident))
	it := es.Entities[e].Items[0]
	querySets := st.querySets
	q := model.QueryID(k)
	for slices.Contains(querySets[es.ItemEntity[it]], q) {
		q = (q + 1) % model.QueryID(len(c.Queries))
	}
	if err := clicks.AddAll([]model.ClickEvent{{Query: q, Item: it, Day: 1, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	return clicks.TakeChangedItems()
}

// tracedPatch is ws.BuildIncremental under a trace. It also returns the
// integer attributes of the build's phase spans, by span name.
func tracedPatch(t *testing.T, ws *Workspace, es *EntitySet, clicks *bipartite.Graph, emb *word2vec.Model, cfg Config, st *IncState, dirty []model.ItemID) (*IncState, *Delta, map[string]map[string]int) {
	t.Helper()
	tr := obs.NewTrace("test")
	root := tr.StartSpan("entity-graph")
	_, nst, d, err := ws.BuildIncremental(obs.ContextWithSpan(context.Background(), root), es, clicks, emb, cfg, st, dirty)
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
	return nst, d, attrs
}

// TestPatchWalksTheDelta patches one dirty item into the c30 window and
// holds every phase to the pairs the delta reaches: the retained pairs
// each reads one at a time (walkedPairs) stay within twice the spans —
// row and column, before and after — of the nodes the patch can touch:
// the dirty entities, their partners before and after, and the CSR rows
// it rewrote. Those spans are a small share of the retained pairs, so a
// walk of the whole list in any phase fails the bound. The state patched
// comes from a first patch, as it does in a pipeline between dense runs.
func TestPatchWalksTheDelta(t *testing.T) {
	c, es, clicks := c30Window(t)
	cfg := DefaultConfig()
	cfg.MinSimilarity = 0.1 // query-only scores: enough pairs for rows of some length
	var ws Workspace
	_, st, _, err := ws.BuildIncremental(context.Background(), es, clicks, nil, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, d, _ := tracedPatch(t, &ws, es, clicks, nil, cfg, st, dirtyOneItem(t, c, es, clicks, st, 1))
	if d.DenseFallback {
		t.Fatalf("first patch: delta %+v, want a patch", d)
	}
	before := &IncState{n: st.n, pairs: slices.Clone(st.pairs), querySets: st.querySets}
	nst, d, attrs := tracedPatch(t, &ws, es, clicks, nil, cfg, st, dirtyOneItem(t, c, es, clicks, st, 2))
	if d.DenseFallback || d.DirtyEntities != 1 || d.ChangedEdges == 0 {
		t.Fatalf("delta %+v, want a one-entity patch that changes edges", d)
	}

	// The nodes a patch can touch, and their spans in both states.
	incident := func(s *IncState) []int {
		n := make([]int, s.n)
		for _, p := range s.pairs {
			n[p[0]]++
			n[p[1]]++
		}
		return n
	}
	touched := make([]bool, nst.n)
	for e := range nst.querySets {
		if !slices.Equal(nst.querySets[e], before.querySets[e]) {
			touched[e] = true
		}
	}
	for _, s := range []*IncState{before, nst} {
		for _, p := range s.pairs {
			if !slices.Equal(nst.querySets[p[0]], before.querySets[p[0]]) ||
				!slices.Equal(nst.querySets[p[1]], before.querySets[p[1]]) {
				touched[p[0]], touched[p[1]] = true, true
			}
		}
	}
	for _, u := range d.DirtyRows {
		touched[u] = true
	}
	spans := 0
	incBefore, incAfter := incident(before), incident(nst)
	for u, ok := range touched {
		if ok {
			spans += incBefore[u] + incAfter[u]
		}
	}
	pairs := attrs["candidates"]["pairs"]
	if pairs != len(nst.pairs) || 4*spans >= pairs {
		t.Fatalf("the touched nodes span %d of %d retained pairs (span says %d): the fixture no longer separates a delta walk from a whole-list one",
			spans, len(nst.pairs), pairs)
	}
	for _, phase := range []string{"query-sets", "candidates", "rank", "emit"} {
		a, ok := attrs[phase]
		if !ok {
			t.Fatalf("no %s span", phase)
		}
		walked, ok := a["walkedPairs"]
		if !ok {
			t.Fatalf("the %s span has no walkedPairs", phase)
		}
		t.Logf("%-10s walkedPairs=%d spans=%d pairs=%d", phase, walked, spans, pairs)
		if walked > 2*spans {
			t.Errorf("%s walked %d retained pairs, want at most %d: twice the %d the touched nodes span, of %d",
				phase, walked, 2*spans, spans, pairs)
		}
	}
}

// TestPatchLetsGoOfDenseScratch holds a workspace to the patch's size: a
// dense run's rank index is the workspace's for the next dense run, and a
// c30 patch lets it go, since no patch reads it.
func TestPatchLetsGoOfDenseScratch(t *testing.T) {
	c, es, clicks := c30Window(t)
	cfg := DefaultConfig()
	var ws Workspace
	_, st, _, err := ws.BuildIncremental(context.Background(), es, clicks, nil, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.rev == nil {
		t.Fatal("a dense run through a workspace kept no rank index")
	}
	_, _, d, err := ws.BuildIncremental(context.Background(), es, clicks, nil, cfg, st, dirtyOneItem(t, c, es, clicks, st, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d.DenseFallback {
		t.Fatalf("delta %+v, want a patch", d)
	}
	if ws.rev != nil {
		t.Errorf("after a patch the workspace holds the rank index (%d)", cap(ws.rev))
	}
}
