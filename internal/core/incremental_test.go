package core_test

// An external test package: TestIncrementalRebuildAfterFailure drives a
// serve.Handler, and serve imports core.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/core"
	"shoal/internal/model"
	"shoal/internal/serve"
	"shoal/internal/synth"
)

// coreSlideDays spreads the corpus clicks over `days` synthetic days
// with a production-shaped delta profile: most click pairs recur every
// day (stable window mass — counts shift on a slide, membership does
// not) while a rotating tail lives on a single day each, so every slide
// perturbs a small item set in both directions.
func coreSlideDays(c *model.Corpus, days int32) [][]model.ClickEvent {
	out := make([][]model.ClickEvent, days)
	for d := int32(0); d < days; d++ {
		for i, ev := range c.Clicks {
			if i%7 == 0 && int32(i/7)%days != d {
				continue
			}
			ev.Day = d
			out[d] = append(out[d], ev)
		}
	}
	return out
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameSearchHits searches both builds for every probe and fails unless
// the hits agree in topic and score bits; it returns the hit count so
// callers can reject a vacuous comparison.
func sameSearchHits(t *testing.T, day int, inc, full *core.Build, probes []string) int {
	t.Helper()
	hits := 0
	for _, q := range probes {
		hi, hf := inc.Searcher.Search(q, 5), full.Searcher.Search(q, 5)
		if len(hi) != len(hf) {
			t.Fatalf("day %d: search %q: %d hits incremental, %d from scratch", day, q, len(hi), len(hf))
		}
		hits += len(hi)
		for i := range hi {
			if hi[i].Topic != hf[i].Topic || math.Float64bits(hi[i].Score) != math.Float64bits(hf[i].Score) {
				t.Fatalf("day %d: search %q hit %d: %+v incremental, %+v from scratch", day, q, i, hi[i], hf[i])
			}
		}
	}
	return hits
}

// TestIncrementalRebuildMatchesFromScratch is the tentpole determinism
// suite: slide a multi-day window through the incremental daily
// pipeline and gob-compare the taxonomy (plus dendrogram and round
// stats, the topic descriptions and the search index's hits with their
// score bits) against a from-scratch build over the same window at EVERY
// step, across worker counts, with embeddings on as the default
// configuration trains them.
func TestIncrementalRebuildMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	c := synth.Curated()
	days := coreSlideDays(c, 8)
	// Searched against both builds at every slide: corpus query texts,
	// a stopword-only query, a duplicate-term query and a miss.
	searchProbes := []string{c.Queries[0].Text, c.Queries[len(c.Queries)/2].Text, c.Queries[len(c.Queries)-1].Text,
		"for the", "beach beach dress", "zzzz"}

	for _, tc := range []struct {
		name    string
		workers int
	}{
		// The -sN suffixes are the shard widths these cases also varied
		// until internal/shard was deleted; the names stay so the suite's
		// test ids do.
		{"w1-s1", 1},
		{"w4-s3", 4},
		{"w2-s2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.WindowDays = 4
			cfg.TrainEmbeddings = false
			cfg.Graph.Workers = tc.workers
			cfg.Graph.MinSimilarity = 0.15

			incCfg := cfg
			incCfg.Incremental = true
			p, err := core.NewDailyPipeline(c, incCfg)
			if err != nil {
				t.Fatal(err)
			}

			sawPatched := false
			searchHits := 0
			for d := range days {
				if err := p.IngestDay(days[d]); err != nil {
					t.Fatal(err)
				}
				bInc, err := p.RebuildContext(ctx)
				if err != nil {
					t.Fatalf("day %d: incremental rebuild: %v", d, err)
				}
				if bInc.Delta == nil || !bInc.Delta.Incremental {
					t.Fatalf("day %d: incremental build carries no delta stats", d)
				}
				if !bInc.Delta.DenseFallback && bInc.Delta.DirtyRows > 0 {
					sawPatched = true
				}

				full := bipartite.New(cfg.WindowDays)
				for fd := 0; fd <= d; fd++ {
					if err := full.AddAll(days[fd]); err != nil {
						t.Fatal(err)
					}
				}
				bFull, err := core.RunWithClicksContext(ctx, c, full, cfg)
				if err != nil {
					t.Fatalf("day %d: from-scratch build: %v", d, err)
				}
				if !bytes.Equal(gobBytes(t, bInc.Taxonomy), gobBytes(t, bFull.Taxonomy)) {
					t.Fatalf("day %d: incremental taxonomy diverged from from-scratch", d)
				}
				if !reflect.DeepEqual(bInc.Dendrogram, bFull.Dendrogram) {
					t.Fatalf("day %d: dendrogram diverged", d)
				}
				if !reflect.DeepEqual(bInc.Rounds, bFull.Rounds) {
					t.Fatalf("day %d: clustering round stats diverged", d)
				}
				if !bytes.Equal(gobBytes(t, bInc.Descriptions), gobBytes(t, bFull.Descriptions)) {
					t.Fatalf("day %d: topic descriptions diverged", d)
				}
				searchHits += sameSearchHits(t, d, bInc, bFull, searchProbes)
			}
			if !sawPatched {
				t.Fatal("no slide patched the entity graph; the incremental path was never exercised")
			}
			if searchHits == 0 {
				t.Fatal("no probe query ever hit a topic; the search comparison is vacuous")
			}
		})
	}
}

// TestStabilityTrajectoryIncremental locks core.Stability under
// incremental rebuilds: the day-over-day stability trajectory of the
// incremental pipeline equals the from-scratch pipeline's exactly.
func TestStabilityTrajectoryIncremental(t *testing.T) {
	ctx := context.Background()
	c := synth.Curated()
	days := coreSlideDays(c, 6)

	cfg := core.DefaultConfig()
	cfg.WindowDays = 3
	cfg.TrainEmbeddings = false
	cfg.Graph.MinSimilarity = 0.15

	incCfg := cfg
	incCfg.Incremental = true
	pInc, err := core.NewDailyPipeline(c, incCfg)
	if err != nil {
		t.Fatal(err)
	}
	pFull, err := core.NewDailyPipeline(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var trajInc, trajFull []float64
	var prevInc, prevFull *core.Build
	for d := range days {
		if err := pInc.IngestDay(days[d]); err != nil {
			t.Fatal(err)
		}
		if err := pFull.IngestDay(days[d]); err != nil {
			t.Fatal(err)
		}
		bInc, err := pInc.RebuildContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		bFull, err := pFull.RebuildContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if prevInc != nil {
			si, err := core.Stability(prevInc, bInc)
			if err != nil {
				t.Fatal(err)
			}
			sf, err := core.Stability(prevFull, bFull)
			if err != nil {
				t.Fatal(err)
			}
			trajInc = append(trajInc, si)
			trajFull = append(trajFull, sf)
		}
		prevInc, prevFull = bInc, bFull
	}
	if !reflect.DeepEqual(trajInc, trajFull) {
		t.Fatalf("stability trajectories diverged:\nincremental: %v\nfrom-scratch: %v", trajInc, trajFull)
	}
}

// TestIncrementalRebuildAfterFailure drives the failed-rebuild path
// through the real pipeline and handler: a rebuild that dies after
// draining the window's delta must leave the published build alone, the
// next rebuild must notice it has nothing to diff against and rebuild
// the graph from scratch — identical to a from-scratch build of the
// window — and the slide after that must be back on the patch path.
func TestIncrementalRebuildAfterFailure(t *testing.T) {
	c := synth.Curated()
	days := coreSlideDays(c, 8)
	cfg := core.DefaultConfig()
	cfg.WindowDays = 4
	cfg.TrainEmbeddings = false
	cfg.Graph.MinSimilarity = 0.15
	incCfg := cfg
	incCfg.Incremental = true
	p, err := core.NewDailyPipeline(c, incCfg)
	if err != nil {
		t.Fatal(err)
	}
	slide := func(d int) *core.Build {
		t.Helper()
		if err := p.IngestDay(days[d]); err != nil {
			t.Fatal(err)
		}
		b, err := p.Rebuild()
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		return b
	}

	// The curated corpus is small enough that some slides trip a patch
	// density gate on their own; failing on day 2 puts a slide that
	// patches (days 1 and 3) on each side of the failure.
	slide(0)
	steady := slide(1)
	if steady.Delta.DenseFallback {
		t.Fatalf("day 1 fell back (%s); the pipeline never reached the patch path", steady.Delta.DenseFallbackReason)
	}
	h, err := serve.NewHandler(steady)
	if err != nil {
		t.Fatal(err)
	}

	if err := p.IngestDay(days[2]); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if b, err := p.RebuildContext(canceled); err == nil {
		t.Fatalf("rebuild under a canceled context succeeded: %+v", b.Delta)
	}
	if p.Last() != steady {
		t.Fatal("failed rebuild replaced the last published build")
	}

	recovered, err := p.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.Delta.DenseFallback || recovered.Delta.DenseFallbackReason != "no-state" {
		t.Fatalf("rebuild after a failure: delta %+v, want a dense fallback with reason no-state", recovered.Delta)
	}
	window := bipartite.New(cfg.WindowDays)
	for d := 0; d <= 2; d++ {
		if err := window.AddAll(days[d]); err != nil {
			t.Fatal(err)
		}
	}
	full, err := core.RunWithClicks(c, window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, recovered.Taxonomy), gobBytes(t, full.Taxonomy)) {
		t.Fatal("recovered taxonomy diverged from from-scratch")
	}
	probes := []string{c.Queries[0].Text, c.Queries[len(c.Queries)/2].Text, "beach beach dress", "zzzz"}
	if sameSearchHits(t, 2, recovered, full, probes) == 0 {
		t.Fatal("no probe query ever hit a topic; the search comparison is vacuous")
	}

	if err := h.Swap(recovered); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/stats", nil))
	var stats serve.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("/api/stats: status %d: %v", rec.Code, err)
	}
	d := recovered.Delta
	want := &serve.DeltaStat{
		DirtyItems: d.DirtyItems, DirtyEntities: d.DirtyEntities,
		ChangedEdges: d.ChangedEdges, DirtyRows: d.DirtyRows, RankedNodes: d.RankedNodes,
		DenseFallback: true, DenseFallbackReason: "no-state",
		DroppedStale: p.Window().DroppedStale,
	}
	if !reflect.DeepEqual(stats.Delta, want) {
		t.Fatalf("/api/stats delta = %+v, want %+v", stats.Delta, want)
	}

	if next := slide(3); next.Delta.DenseFallback || next.Delta.DirtyRows == 0 {
		t.Fatalf("slide after the recovery: delta %+v, want a patch over dirty rows", next.Delta)
	}
}
