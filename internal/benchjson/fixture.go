package benchjson

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"sync"

	"shoal/internal/bipartite"
	"shoal/internal/core"
	"shoal/internal/dendrogram"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/phac"
	"shoal/internal/synth"
	"shoal/internal/taxonomy"
	"shoal/internal/wgraph"
	"shoal/internal/word2vec"
)

// FixtureEnv names the environment variable holding the on-disk fixture
// cache path. When set, FixedWorld loads the corpus+pipeline fixture
// from that file instead of rebuilding it, and saves it there after a
// fresh build — so CI's `-benchtime 1x` smoke pass (which constructs the
// fixture through the root bench suite) and the runner-side gated
// benchjson re-run share one fixture build instead of paying for it
// twice.
const FixtureEnv = "SHOAL_BENCH_FIXTURE"

var (
	fwOnce   sync.Once
	fwBuild  *core.Build
	fwClicks *bipartite.Graph
	fwSizes  []int
	fwErr    error
)

// fixedWorldConfig is the fixed benchmark pipeline configuration —
// shared by the fresh build and the fixture loader (which needs the
// search-doc cap and catcorr settings to reconstruct derived state).
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
// roughly 4x the unit-test scale plus a full pipeline build over it,
// built (or loaded from the FixtureEnv cache) once per process. The
// scale is fixed — not flag-tunable — so BENCH_*.json files from
// different PRs are comparable. The returned values are shared;
// treat them as read-only.
func FixedWorld() (*core.Build, *bipartite.Graph, []int, error) {
	fwOnce.Do(func() {
		path := os.Getenv(FixtureEnv)
		if path != "" {
			if b, err := loadFixture(path); err == nil {
				fwBuild = b
				fwClicks, fwSizes, fwErr = deriveWorld(b)
				return
			}
			// Missing or stale cache: fall through to a fresh build.
		}
		b, err := buildFixedWorld()
		if err != nil {
			fwErr = err
			return
		}
		fwBuild = b
		fwClicks, fwSizes, fwErr = deriveWorld(b)
		if path != "" && fwErr == nil {
			fwErr = saveFixture(path, b)
		}
	})
	return fwBuild, fwClicks, fwSizes, fwErr
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

// deriveWorld rebuilds the cheap per-process companions of the fixture:
// the click window and the entity size vector.
func deriveWorld(b *core.Build) (*bipartite.Graph, []int, error) {
	clicks := bipartite.New(7)
	if err := clicks.AddAll(b.Corpus.Clicks); err != nil {
		return nil, nil, err
	}
	sizes := make([]int, len(b.Entities.Entities))
	for i := range sizes {
		sizes[i] = b.Entities.Entities[i].Size()
	}
	return clicks, sizes, nil
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

// fixtureFile is the gob wire form of the fixture: the corpus and every
// expensive pipeline product the benchmarks read. The graph ships as its
// canonical edge list and is rebuilt with wgraph.FromEdges — byte-
// identical to the original arrays (entitygraph's
// TestEmitMatchesCanonicalBuilder). Descriptions, correlations and
// stage timings are derived or unread by the benchmarks and are not
// cached.
type fixtureFile struct {
	Corpus            *model.Corpus
	Entities          *entitygraph.EntitySet
	QuerySets         [][]model.QueryID
	NumNodes          int
	Edges             []wgraph.Edge
	Dendrogram        *dendrogram.Dendrogram
	Rounds            []phac.RoundStat
	Taxonomy          []byte // taxonomy.Save encoding
	Embeddings        []byte // word2vec Save encoding; empty when disabled
	SearchDocTokenCap int
}

// saveFixture writes the fixture cache for b.
func saveFixture(path string, b *core.Build) error {
	f := fixtureFile{
		Corpus:            b.Corpus,
		Entities:          b.Entities,
		QuerySets:         b.QuerySets,
		NumNodes:          b.Graph.NumNodes(),
		Edges:             b.Graph.Edges(),
		Dendrogram:        b.Dendrogram,
		Rounds:            b.Rounds,
		SearchDocTokenCap: fixedWorldConfig().SearchDocTokenCap,
	}
	var tx bytes.Buffer
	if err := b.Taxonomy.Save(&tx); err != nil {
		return fmt.Errorf("benchjson: fixture taxonomy: %w", err)
	}
	f.Taxonomy = tx.Bytes()
	if b.Embeddings != nil {
		var em bytes.Buffer
		if err := b.Embeddings.Save(&em); err != nil {
			return fmt.Errorf("benchjson: fixture embeddings: %w", err)
		}
		f.Embeddings = em.Bytes()
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&f); err != nil {
		return fmt.Errorf("benchjson: encoding fixture: %w", err)
	}
	return os.WriteFile(path, out.Bytes(), 0o644)
}

// loadFixture reads a fixture cache and reassembles the build: the
// CSR from the canonical edge list, the searcher from the same
// search documents the pipeline indexes. Any error means "rebuild".
func loadFixture(path string) (*core.Build, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f fixtureFile
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil {
		return nil, fmt.Errorf("benchjson: decoding fixture: %w", err)
	}
	if err := f.Corpus.Validate(); err != nil {
		return nil, fmt.Errorf("benchjson: fixture corpus: %w", err)
	}
	g, err := wgraph.FromEdges(f.NumNodes, f.Edges)
	if err != nil {
		return nil, fmt.Errorf("benchjson: fixture graph: %w", err)
	}
	tx, err := taxonomy.Load(bytes.NewReader(f.Taxonomy))
	if err != nil {
		return nil, fmt.Errorf("benchjson: fixture taxonomy: %w", err)
	}
	b := &core.Build{
		Corpus:     f.Corpus,
		Entities:   f.Entities,
		Graph:      g,
		QuerySets:  f.QuerySets,
		Dendrogram: f.Dendrogram,
		Rounds:     f.Rounds,
		Taxonomy:   tx,
	}
	if len(f.Embeddings) > 0 {
		m, err := word2vec.Load(bytes.NewReader(f.Embeddings))
		if err != nil {
			return nil, fmt.Errorf("benchjson: fixture embeddings: %w", err)
		}
		b.Embeddings = m
	}
	if len(tx.Topics) > 0 {
		docs, vocab := b.SearchDocIDs(f.SearchDocTokenCap)
		s, err := taxonomy.NewSearcherIDs(context.Background(), tx, docs, vocab)
		if err != nil {
			return nil, fmt.Errorf("benchjson: fixture searcher: %w", err)
		}
		b.Searcher = s
	}
	return b, nil
}
