package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"testing"

	"shoal/internal/model"
	"shoal/internal/synth"
)

// TestBuildTraceCoverage locks the build-trace contract: every executed
// stage opens exactly one root span, clustering merge rounds nest under
// the parallel-hac stage, and the whole tree exports as parseable
// Chrome trace-event JSON.
func TestBuildTraceCoverage(t *testing.T) {
	corpus := smallCorpus(t)
	b, err := Run(corpus, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.Trace == nil {
		t.Fatal("build carries no trace")
	}

	var buf bytes.Buffer
	if err := b.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome JSON does not parse: %v", err)
	}

	spans := map[string]map[string]any{}
	for _, ev := range f.TraceEvents {
		spans[ev.Name] = ev.Args
	}
	for _, st := range b.StageTimings {
		if _, ok := spans[st.Stage]; !ok {
			t.Errorf("stage %q has no trace span", st.Stage)
		}
	}
	round0, ok := spans["round-0"]
	if !ok {
		t.Fatal("no merge-round span under the clustering stage")
	}
	if round0["parent"] != "parallel-hac" {
		t.Fatalf("round-0 parent = %v, want parallel-hac", round0["parent"])
	}
	for _, key := range []string{"aliveRows", "retired", "activeEdges", "selected", "frontierSize"} {
		if _, ok := round0[key]; !ok {
			t.Errorf("round-0 span missing attribute %q", key)
		}
	}
}

// TestBuildTraceClusterRounds pins the counts that let a round span
// explain its own cost: round 0 recomputes every row at least once
// (nothing is memoized yet), selection verifies at least the pairs it
// selects, and the alive rows account for every merge and retirement —
// a round's merges each take one row off, and the next round's init
// takes off the rows it retires.
func TestBuildTraceClusterRounds(t *testing.T) {
	b, err := Run(smallCorpus(t), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	counts := map[string]map[string]int{}
	for _, r := range b.Trace.Records() {
		if r.Parent != "parallel-hac" {
			continue
		}
		rounds++
		n := map[string]int{}
		for _, a := range r.Attrs {
			if v, ok := a.Value.(int); ok {
				n[a.Key] = v
			}
		}
		counts[r.Name] = n
		for _, key := range []string{"recomputedRows", "candidates", "retired"} {
			if _, ok := n[key]; !ok {
				t.Fatalf("%s: span missing count %q", r.Name, key)
			}
		}
		if n["candidates"] < n["selected"] {
			t.Errorf("%s: candidates=%d selected=%d", r.Name, n["candidates"], n["selected"])
		}
		if r.Name == "round-0" && (n["selected"] == 0 || n["recomputedRows"] < n["aliveRows"]) {
			t.Errorf("round-0: selected=%d recomputedRows=%d aliveRows=%d",
				n["selected"], n["recomputedRows"], n["aliveRows"])
		}
	}
	if rounds != len(b.Rounds)+1 { // the round that finds nothing left to merge has a span too
		t.Errorf("%d round spans for %d merge rounds", rounds, len(b.Rounds))
	}
	retired := 0
	for i := 0; i < rounds; i++ {
		n := counts["round-"+strconv.Itoa(i)]
		retired += n["retired"]
		if i == 0 {
			continue
		}
		prev := counts["round-"+strconv.Itoa(i-1)]
		if want := prev["aliveRows"] - prev["selected"] - n["retired"]; n["aliveRows"] != want {
			t.Errorf("round-%d: aliveRows=%d, want %d alive - %d merged - %d retired",
				i, n["aliveRows"], prev["aliveRows"], prev["selected"], n["retired"])
		}
	}
	if retired == 0 {
		t.Error("no round retired a cluster")
	}
}

// TestBuildTraceSubStages pins the sub-stage spans of the stage that
// opens a window slide — the entity graph, built or patched — and of the
// two that close it, with the attributes that size their work (for the
// closing two and the entity graph's rank, also the number of ranges
// each loop split into), on a one-shot build and on a patched slide.
func TestBuildTraceSubStages(t *testing.T) {
	b, err := Run(smallCorpus(t), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A one-shot build runs over an empty cache: nothing drained and no
	// previous state to patch.
	if d := b.Delta; d == nil || !d.DenseFallback || d.DenseFallbackReason != "no-state" || d.DirtyItems != 0 {
		t.Fatalf("one-shot build delta = %+v, want a no-state dense fallback over no dirty items", d)
	}

	// A slide that patches: most click pairs of the curated corpus recur
	// on both days, a rotating seventh lives on one (the slide shape of
	// TestIncrementalRebuildMatchesFromScratch).
	c := synth.Curated()
	cfg := testConfig()
	cfg.TrainEmbeddings = false
	cfg.Graph.MinSimilarity = 0.15
	p, err := NewDailyPipeline(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var patched *Build
	for d := int32(0); d < 2; d++ {
		var day []model.ClickEvent
		for i, ev := range c.Clicks {
			if i%7 != 0 || int32(i/7)%8 == d {
				ev.Day = d
				day = append(day, ev)
			}
		}
		if err := p.IngestDay(day); err != nil {
			t.Fatal(err)
		}
		if patched, err = p.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	if patched.Delta.DenseFallback {
		t.Fatalf("the slide fell back (%s): no patch to trace", patched.Delta.DenseFallbackReason)
	}

	// Both builds run the same stages under the same names, so each build's
	// spans go in a map of their own.
	type key struct{ parent, name string }
	attrsOf := func(b *Build) map[key]map[string]any {
		attrs := map[key]map[string]any{}
		for _, r := range b.Trace.Records() {
			m := map[string]any{}
			for _, a := range r.Attrs {
				m[a.Key] = a.Value
			}
			attrs[key{r.Parent, r.Name}] = m
		}
		return attrs
	}
	built, slid := attrsOf(b), attrsOf(patched)
	for _, tc := range []struct {
		build string
		attrs map[key]map[string]any
	}{{"one-shot build", built}, {"patched slide", slid}} {
		for _, want := range []struct {
			k     key
			attrs []string
		}{
			{key{"entity-graph", "query-sets"}, []string{"dirtyEntities"}},
			{key{"entity-graph", "candidates"}, []string{"scored", "pairs", "regenerated"}},
			{key{"entity-graph", "rank"}, []string{"rescored", "workers", "nodesRanked"}},
			{key{"entity-graph", "emit"}, []string{"dirtyRows", "kept"}},
			{key{"describe", "index"}, []string{"tokens", "workers"}},
			{key{"describe", "candidates"}, []string{"workers"}},
			{key{"describe", "score"}, []string{"distinctQueries", "candidatePairs", "workers"}},
			{key{"describe", "rank"}, []string{"workers"}},
			{key{"search-index", "build"}, []string{"tokens", "workers"}},
		} {
			got, ok := tc.attrs[want.k]
			if !ok {
				t.Errorf("%s: no span %q under stage %q", tc.build, want.k.name, want.k.parent)
				continue
			}
			for _, a := range want.attrs {
				if n, _ := got[a].(int); n <= 0 {
					t.Errorf("%s: span %s/%s: attribute %q = %v, want a positive count", tc.build, want.k.parent, want.k.name, a, got[a])
				}
			}
		}
		// Both BM25 builds stream their documents into postings: no phase
		// lays them out first.
		for _, gone := range []key{{"describe", "docs"}, {"search-index", "docs"}} {
			if _, ok := tc.attrs[gone]; ok {
				t.Errorf("%s: span %s/%s: the documents were materialized before the index", tc.build, gone.parent, gone.name)
			}
		}
		score := tc.attrs[key{"describe", "score"}]
		dq, _ := score["distinctQueries"].(int)
		cp, _ := score["candidatePairs"].(int)
		if dq > cp {
			t.Errorf("%s: distinctQueries %d exceeds candidatePairs %d", tc.build, dq, cp)
		}
	}
	scored, _ := built[key{"entity-graph", "candidates"}]["scored"].(int)
	pairs, _ := built[key{"entity-graph", "candidates"}]["pairs"].(int)
	kept, _ := built[key{"entity-graph", "emit"}]["kept"].(int)
	if kept != b.Graph.NumEdges() || kept > pairs || pairs > scored {
		t.Errorf("entity-graph: %d pairs scored, %d retained, %d kept, %d edges in the graph",
			scored, pairs, kept, b.Graph.NumEdges())
	}
	if rows, _ := slid[key{"entity-graph", "emit"}]["dirtyRows"].(int); rows != patched.Delta.DirtyRows {
		t.Errorf("patched entity-graph/emit: dirtyRows %d, build delta says %d", rows, patched.Delta.DirtyRows)
	}
	if ranked, _ := slid[key{"entity-graph", "rank"}]["nodesRanked"].(int); ranked != patched.Delta.RankedNodes {
		t.Errorf("patched entity-graph/rank: nodesRanked %d, build delta says %d", ranked, patched.Delta.RankedNodes)
	}
}

// TestMeansSpan pins the entity graph's "means" span: the cold build of
// a daily pipeline computes the entities' mean vectors under it, and a
// slide, which reuses them from the cache, opens none, so the
// candidates span times the row pass alone on both.
func TestMeansSpan(t *testing.T) {
	corpus, byDay := dayCorpus(t)
	cfg := testConfig()
	cfg.WindowDays = 7
	p, err := NewDailyPipeline(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 7; day++ {
		if err := p.IngestDay(byDay[day]); err != nil {
			t.Fatal(err)
		}
	}
	means := func(b *Build) (n int, entities any) {
		for _, r := range b.Trace.Records() {
			if r.Parent == "entity-graph" && r.Name == "means" {
				n++
				for _, a := range r.Attrs {
					if a.Key == "entities" {
						entities = a.Value
					}
				}
			}
		}
		return n, entities
	}
	cold, _, err := p.Step(context.Background(), byDay[7])
	if err != nil {
		t.Fatal(err)
	}
	if n, entities := means(cold); n != 1 || entities != len(cold.Entities.Entities) {
		t.Fatalf("cold build: %d means spans, entities=%v; want one, entities=%d", n, entities, len(cold.Entities.Entities))
	}
	slide, _, err := p.Step(context.Background(), byDay[8])
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := means(slide); n != 0 {
		t.Fatalf("slide: %d means spans, want none (the means are cached)", n)
	}
}
