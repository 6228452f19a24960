package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/model"
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

// TestIncrementalRebuildMatchesFromScratch is the tentpole determinism
// suite: slide a multi-day window through the incremental daily
// pipeline and gob-compare the taxonomy (plus dendrogram and round
// stats, the topic descriptions and the search index's hits with their
// score bits) against a from-scratch build over the same window at EVERY
// step, across shard/worker counts and both clustering execution paths.
// Embeddings stay off: the Hogwild trainer is the one intentionally
// nondeterministic stage, so the from-scratch baseline itself would not
// reproduce with them on.
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
		shards  int
		bsp     bool
	}{
		{"w1-s1", 1, 1, false},
		{"w4-s3", 4, 3, false},
		{"w2-s2-bsp", 2, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.WindowDays = 4
			cfg.TrainEmbeddings = false
			cfg.Shards = tc.shards
			cfg.BSP = tc.bsp
			cfg.HAC.Workers = tc.workers
			cfg.Graph.Workers = tc.workers
			cfg.Graph.MinSimilarity = 0.15

			incCfg := cfg
			incCfg.Incremental = true
			p, err := NewDailyPipeline(c, incCfg)
			if err != nil {
				t.Fatal(err)
			}

			sawSeeded := false
			sawReplayed := false
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
				if !bInc.Delta.DenseFallback && bInc.Delta.SeededRows > 0 {
					sawSeeded = true
				}
				if bInc.Delta.ReplayedRounds > 0 {
					if bInc.Delta.ClusterCold != "" {
						t.Fatalf("day %d: replayed %d rounds but delta claims a cold clustering (%s)",
							d, bInc.Delta.ReplayedRounds, bInc.Delta.ClusterCold)
					}
					sawReplayed = true
				}

				full := bipartite.New(cfg.WindowDays)
				for fd := 0; fd <= d; fd++ {
					if err := full.AddAll(days[fd]); err != nil {
						t.Fatal(err)
					}
				}
				bFull, err := RunWithClicksContext(ctx, c, full, cfg)
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
				for _, q := range searchProbes {
					hi, hf := bInc.Searcher.Search(q, 5), bFull.Searcher.Search(q, 5)
					if len(hi) != len(hf) {
						t.Fatalf("day %d: search %q: %d hits incremental, %d from scratch", d, q, len(hi), len(hf))
					}
					searchHits += len(hi)
					for i := range hi {
						if hi[i].Topic != hf[i].Topic || math.Float64bits(hi[i].Score) != math.Float64bits(hf[i].Score) {
							t.Fatalf("day %d: search %q hit %d: %+v incremental, %+v from scratch", d, q, i, hi[i], hf[i])
						}
					}
				}
			}
			if !sawSeeded {
				t.Fatal("no slide warm-started clustering; the incremental path was never exercised")
			}
			if !sawReplayed {
				t.Fatal("no slide replayed any merge round; dendrogram-prefix reuse was never exercised")
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

	cfg := DefaultConfig()
	cfg.WindowDays = 3
	cfg.TrainEmbeddings = false
	cfg.Shards = 2
	cfg.Graph.MinSimilarity = 0.15

	incCfg := cfg
	incCfg.Incremental = true
	pInc, err := NewDailyPipeline(c, incCfg)
	if err != nil {
		t.Fatal(err)
	}
	pFull, err := NewDailyPipeline(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var trajInc, trajFull []float64
	var prevInc, prevFull *Build
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
			si, err := Stability(prevInc, bInc)
			if err != nil {
				t.Fatal(err)
			}
			sf, err := Stability(prevFull, bFull)
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
