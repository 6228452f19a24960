package benchjson

import (
	"context"
	"fmt"
	"sync"

	"shoal/internal/bipartite"
	"shoal/internal/core"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/phac"
	"shoal/internal/synth"
)

var (
	fwOnce  sync.Once
	fwBuild *core.Build
	fwSizes []int
	fwErr   error
)

// fixedWorldConfig is the fixed benchmark pipeline configuration.
func fixedWorldConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Word2Vec.Epochs = 2
	cfg.Word2Vec.Dim = 24
	cfg.Graph.MinSimilarity = 0.25
	cfg.Graph.MaxQueryFanout = 50
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12, 0.3, 0.5}
	return cfg
}

// FixedWorld returns the shared benchmark fixture: a synthetic corpus
// roughly 4x the unit-test scale, a full pipeline build over it, the
// build's seven-day click window and its entity sizes, built once per
// process. The scale is fixed — not flag-tunable — so BENCH_*.json files
// from different PRs are comparable. The returned values are shared;
// treat them as read-only.
func FixedWorld() (*core.Build, *bipartite.Graph, []int, error) {
	fwOnce.Do(func() {
		fwBuild, fwErr = buildFixedWorld()
		if fwErr != nil {
			return
		}
		fwSizes = make([]int, len(fwBuild.Entities.Entities))
		for i := range fwSizes {
			fwSizes[i] = fwBuild.Entities.Entities[i].Size()
		}
	})
	if fwErr != nil {
		return nil, nil, nil, fwErr
	}
	return fwBuild, fwBuild.Clicks, fwSizes, nil
}

func buildFixedWorld() (*core.Build, error) {
	gen := synth.DefaultConfig()
	gen.Scenarios = 32
	gen.ItemsPerScenario = 150
	gen.QueriesPerScenario = 30
	gen.NoiseItems = 160
	gen.HeadQueries = 20
	corpus, err := synth.Generate(gen)
	if err != nil {
		return nil, err
	}
	return core.Run(corpus, fixedWorldConfig())
}

// slideWorld is the precomputed input of the daily-rebuild /
// incremental-rebuild pair: one one-day slide of a seven-day window,
// with the pre-slide entity-graph state already captured. Both
// benchmarks rebuild the SAME post-slide window from the same inputs —
// one from scratch, one delta-driven — so their ratio
// (incremental-vs-full) isolates what the delta path saves.
type slideWorld struct {
	window *bipartite.Graph     // the post-slide window
	dirty  []model.ItemID       // items the slide changed
	days   [][]model.ClickEvent // the stream's eight days, for ingestWorld
	st     *entitygraph.IncState
	gcfg   entitygraph.Config
	hcfg   phac.Config
}

// buildSlideWorld replays the fixture corpus's clicks as a
// production-shaped stream: recurring head demand plus a small rotating
// tail (the shape examples/daily streams, at lower churn so the dirty
// neighborhood stays well under the patch density gate at this corpus
// scale). It fills a seven-day window, captures the incremental state,
// then slides one day.
func buildSlideWorld(b *core.Build) (*slideWorld, error) {
	const days, tail = 8, 400
	byDay := make([][]model.ClickEvent, days)
	for i, ev := range b.Corpus.Clicks {
		if i%tail == 0 { // churning tail: one day each
			ev.Day = int32(i/tail) % days
			byDay[ev.Day] = append(byDay[ev.Day], ev)
			continue
		}
		for d := int32(0); d < days; d++ { // recurring head
			ev.Day = d
			byDay[d] = append(byDay[d], ev)
		}
	}
	sw := &slideWorld{
		window: bipartite.New(days - 1),
		days:   byDay,
		gcfg:   fixedWorldConfig().Graph,
		hcfg:   phac.Config{StopThreshold: 0.12, DiffusionRounds: 2},
	}
	ctx := context.Background()
	for d := 0; d < days-1; d++ {
		if err := sw.window.AddAll(byDay[d]); err != nil {
			return nil, err
		}
	}
	sw.window.TakeChangedItems() // first build is always cold
	_, st, err := entitygraph.BuildWithState(ctx, b.Entities, sw.window, b.Embeddings, sw.gcfg)
	if err != nil {
		return nil, err
	}
	sw.st = st
	if err := sw.window.AddAll(byDay[days-1]); err != nil {
		return nil, err
	}
	sw.dirty = sw.window.TakeChangedItems()
	// The pair's contract is that the delta path actually runs: a slide
	// dense enough to trip the patch gate would make both benchmarks
	// measure the same full build and the ratio meaningless.
	_, _, d, err := entitygraph.BuildIncremental(ctx, b.Entities, sw.window, b.Embeddings, sw.gcfg, sw.st, sw.dirty)
	if err != nil {
		return nil, err
	}
	if d.DenseFallback {
		return nil, fmt.Errorf("benchjson: slide fixture tripped the dense fallback (dirty items %d)", d.DirtyItems)
	}
	return sw, nil
}

// ingestWorld is the window-ingest benchmark's input: the slide world's
// days streamed round-robin through a seven-day window, each renumbered as
// the day after the newest, so every slide is one steady-state day — a
// day's clicks in, the oldest day out.
type ingestWorld struct {
	window *bipartite.Graph
	days   [][]model.ClickEvent
	next   int32
}

// newIngestWorld fills a seven-day window from days (which it renumbers
// in place from then on).
func newIngestWorld(days [][]model.ClickEvent) (*ingestWorld, error) {
	w := &ingestWorld{window: bipartite.New(7), days: days}
	for range 7 {
		if err := w.slide(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// slide ingests the next day and drains the changed items, as a daily
// pipeline's IngestDay and incremental rebuild do.
func (w *ingestWorld) slide() error {
	evs := w.days[int(w.next)%len(w.days)]
	for i := range evs {
		evs[i].Day = w.next
	}
	w.next++
	if err := w.window.AddAll(evs); err != nil {
		return err
	}
	w.window.TakeChangedItems()
	return nil
}
