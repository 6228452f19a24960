// Package core orchestrates the SHOAL framework end to end (paper §2):
// click logs → item entity graph → Parallel HAC → hierarchical topics →
// topic descriptions → category correlations. Each stage is an internal
// package; this package owns the schedule, configuration and timing.
//
// run writes the schedule out as one fork-join: independent stages —
// word2vec next to the click-graph and entity formation, describe next
// to category correlation — run concurrently, and a stage is called only
// after every stage it reads has returned, so the concurrent schedule
// produces output identical to the sequential one.
//
// Every build is a rebuild over a cache: the corpus-static entities and
// embeddings plus the previous build's entity-graph state. A one-shot
// build (Run, RunWithClicks) starts from an empty cache, so its entity
// graph is built with every entity dirty. DailyPipeline, the production
// sliding-window operation, keeps its cache across rebuilds: the
// window's changed items are drained each rebuild and the entity graph
// is patched from them, with output byte-identical to a one-shot build
// of the same window. Build.Delta reports what each build touched.
// Clustering and every stage after it run from scratch on every build,
// as the paper's Parallel HAC does (ROADMAP, "Why clustering runs cold
// on every slide"), but not in fresh memory: the cache also keeps each
// stage's workspace — the entity graph's spare pair arrays and scratch,
// clustering's state, describe's candidates and index — and the next
// build re-slices it instead of allocating. Nothing a published Build
// references is in a workspace, and a failed rebuild drops them all.
//
// Inside a stage, work splits by GOMAXPROCS where it divides cleanly:
// the entity graph splits its candidate rows over workers, and the
// slide's tail — describe and the search index — splits every loop over
// topics, queries or documents into contiguous ranges through
// internal/par. A range writes only its own output slots.
//
// Every build is deterministic: a corpus and a Config determine the
// output byte for byte — word2vec included, which trains serially from
// its seed — whatever the schedule, the entity graph's worker count,
// GOMAXPROCS, or the cache it started from.
package core

import (
	"context"
	"fmt"
	"time"

	"shoal/internal/bipartite"
	"shoal/internal/catcorr"
	"shoal/internal/dendrogram"
	"shoal/internal/describe"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/par"
	"shoal/internal/phac"
	"shoal/internal/taxonomy"
	"shoal/internal/wgraph"
	"shoal/internal/word2vec"
)

// Config bundles per-stage configuration.
type Config struct {
	// WindowDays is the click-log sliding window (paper: 7). <= 0 keeps
	// every click.
	WindowDays int
	// TrainEmbeddings enables the word2vec content signal. When false,
	// similarity is query-driven only (entitygraph handles the blend).
	TrainEmbeddings bool
	// Sequential runs stages one at a time, in schedule order, instead of
	// concurrently. Output is identical either way; this is the
	// debugging / benchmark baseline.
	Sequential bool
	// Shards is read by nothing, written only by the frozen
	// benchmark/replay.go: the graph substrate is one CSR. The next
	// benchmark-archetype PR deletes it.
	Shards   int
	Word2Vec word2vec.Config
	Graph    entitygraph.Config
	// Incremental is read by nothing, written only by the frozen
	// benchmark/run.go: every DailyPipeline rebuild patches the entity
	// graph. The next benchmark-archetype PR deletes it.
	Incremental bool
	// HAC is the clustering configuration: the stop threshold, r and the
	// merge rule. Every r forms the same clusters up to tie-breaks.
	HAC      phac.Config
	Taxonomy taxonomy.Config
	Describe describe.Config
	CatCorr  catcorr.Config
	// SearchDocTokenCap bounds tokens contributed per topic to the
	// search index.
	SearchDocTokenCap int
}

// DefaultConfig mirrors the paper's demonstration settings (α=0.7,
// 7-day window, correlation threshold 10) and clusters at
// phac.DefaultConfig (r = 0, which forms the paper's r = 2 clusters,
// up to tie-breaks, in fewer rounds).
func DefaultConfig() Config {
	return Config{
		WindowDays:        7,
		TrainEmbeddings:   true,
		Word2Vec:          word2vec.DefaultConfig(),
		Graph:             entitygraph.DefaultConfig(),
		HAC:               phac.DefaultConfig(),
		Taxonomy:          taxonomy.DefaultConfig(),
		Describe:          describe.DefaultConfig(),
		CatCorr:           catcorr.DefaultConfig(),
		SearchDocTokenCap: 256,
	}
}

// CuratedConfig is what shoal-serve and shoal-explore build with:
// DefaultConfig sized for the curated mini corpus (two word2vec epochs,
// every query in the vocabulary, a looser edge filter and stop
// threshold). Over the curated corpus every category correlation is
// kept; over a loaded one a correlation needs a strength of 2.
func CuratedConfig(loaded bool) Config {
	cfg := DefaultConfig()
	cfg.Word2Vec.Epochs = 2
	cfg.Word2Vec.MinCount = 1
	cfg.Graph.MinSimilarity = 0.2
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12, 0.3, 0.5}
	cfg.CatCorr.MinStrength = 0
	if loaded {
		cfg.CatCorr.MinStrength = 2
	}
	return cfg
}

// Build is the fully assembled SHOAL system for one corpus.
type Build struct {
	Corpus    *model.Corpus
	Clicks    *bipartite.Graph
	Entities  *entitygraph.EntitySet
	Graph     *wgraph.CSR
	QuerySets [][]model.QueryID
	// Shards is read by nothing, written only by the frozen
	// benchmark/replay.go; the next benchmark-archetype PR deletes it.
	Shards int
	// FrontierDensity is read by nothing, written only by the frozen
	// benchmark/replay.go; the next benchmark-archetype PR deletes it.
	FrontierDensity float64
	// Workers and BSPStats are read by nothing, written only by the
	// frozen benchmark/replay.go; the next benchmark-archetype PR deletes
	// them.
	Workers    int
	BSPStats   *phac.NoStats
	Embeddings *word2vec.Model
	Dendrogram *dendrogram.Dendrogram
	Rounds     []phac.RoundStat
	// Delta summarizes what the build recomputed of the previous one; a
	// one-shot build, having no previous one, reads as a "no-state"
	// dense fallback. Reported by /api/stats.
	Delta    *DeltaStats
	Taxonomy *taxonomy.Taxonomy
	// Descriptions holds one description per topic, in topic order; the
	// search documents read its QueryIDs.
	Descriptions []describe.Description
	Correlations *catcorr.Graph
	Searcher     *taxonomy.Searcher
	// StageTimings records wall time per pipeline stage, in stage
	// declaration order.
	StageTimings []StageTiming
	// Trace is the build's hierarchical execution trace: one span per
	// pipeline stage, one per clustering merge round beneath the
	// parallel-hac stage. Exported as Chrome trace-event JSON by shoal-build -trace and
	// GET /api/trace.
	Trace *obs.Trace
}

// StageTiming is one stage's wall-clock cost. Start is the offset from
// pipeline start, so overlapping stages are visible in the timings.
type StageTiming struct {
	Stage   string
	Start   time.Duration
	Elapsed time.Duration
}

// Run executes the full pipeline over the corpus, ingesting the corpus's
// click log into a fresh sliding-window graph.
func Run(corpus *model.Corpus, cfg Config) (*Build, error) {
	return RunContext(context.Background(), corpus, cfg)
}

// RunContext is Run with cancellation: canceling ctx aborts in-flight
// stages and returns the context error.
func RunContext(ctx context.Context, corpus *model.Corpus, cfg Config) (*Build, error) {
	return run(ctx, corpus, nil, cfg, &rebuildCache{}, nil)
}

// RunWithClicks executes the pipeline over an externally maintained click
// graph (e.g. the daily sliding-window pipeline); corpus.Clicks is ignored.
func RunWithClicks(corpus *model.Corpus, clicks *bipartite.Graph, cfg Config) (*Build, error) {
	return RunWithClicksContext(context.Background(), corpus, clicks, cfg)
}

// RunWithClicksContext is RunWithClicks with cancellation.
func RunWithClicksContext(ctx context.Context, corpus *model.Corpus, clicks *bipartite.Graph, cfg Config) (*Build, error) {
	if clicks == nil {
		return nil, fmt.Errorf("core: nil click graph")
	}
	return run(ctx, corpus, clicks, cfg, &rebuildCache{}, nil)
}

// run is the one build driver: it declares the stages over cache, runs
// them on the schedule below and assembles the Build they fill in. A nil
// clicks makes the build ingest the corpus's own click log. Each stage
// starts once the stages it reads have finished:
//
//	click-graph ─┬─▶ entity-graph ─▶ parallel-hac ─▶ taxonomy ─┬─▶ describe ─▶ search-index
//	entities ────┤                                             └─▶ category-correlation
//	word2vec ────┘
//
// click-graph is omitted when the caller supplies an external click graph,
// and word2vec when embeddings are disabled. The stages ahead of
// clustering consult the cross-build cache: entities and embeddings are
// corpus-static and computed once per cache, and the entity graph is
// patched from dirtyItems against the cached previous build — with no
// previous build every entity is dirty, which is the full build.
// Clustering and everything downstream run from scratch. cache is
// updated in place as stages succeed; on error the caller must drop its
// graphState.
func run(ctx context.Context, corpus *model.Corpus, clicks *bipartite.Graph, cfg Config, cache *rebuildCache, dirtyItems []model.ItemID) (*Build, error) {
	if err := corpus.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	b := &Build{Corpus: corpus, Clicks: clicks, Trace: obs.NewTrace("shoal-build")}
	if cache.ws == nil {
		cache.ws = new(workspaces)
	}
	ws := cache.ws
	// Declaration order is the order of b.StageTimings.
	fj := newForkJoin(ctx, b.Trace, cfg.Sequential)
	var inputs []func()
	if clicks == nil {
		inputs = append(inputs, fj.stage("click-graph", func(context.Context) error {
			b.Clicks = bipartite.New(cfg.WindowDays)
			return b.Clicks.AddAll(corpus.Clicks)
		}))
	}
	inputs = append(inputs, fj.stage("entities", func(ctx context.Context) error {
		if cache.entities == nil {
			es, err := entitygraph.BuildEntities(ctx, corpus)
			if err != nil {
				return err
			}
			cache.entities = es
		}
		b.Entities = cache.entities
		return nil
	}))
	if cfg.TrainEmbeddings {
		inputs = append(inputs, fj.stage("word2vec", func(ctx context.Context) error {
			if !cache.haveEmb {
				text := corpus.Text()
				titles := make([][]uint32, len(corpus.Items))
				for i := range titles {
					titles[i] = text.Title(model.ItemID(i))
				}
				m, err := word2vec.TrainIDs(ctx, text.Vocab().Words(), titles, cfg.Word2Vec)
				if err != nil {
					return err
				}
				cache.embeddings, cache.haveEmb = m, true
			}
			b.Embeddings = cache.embeddings
			return nil
		}))
	}
	entityGraph := fj.stage("entity-graph", func(ctx context.Context) error {
		// The state changes hands for the call: the workspace recycles its
		// pair arrays, a dense fallback drops it before building its
		// replacement, and an error invalidates it anyway.
		st := cache.graphState
		cache.graphState = nil
		res, nst, d, err := ws.graph.BuildIncremental(ctx, b.Entities, b.Clicks, b.Embeddings, cfg.Graph, st, dirtyItems)
		if err != nil {
			return err
		}
		cache.graphState = nst
		b.Graph = res.Graph
		b.QuerySets = res.QuerySets
		b.Delta = &DeltaStats{
			DirtyItems:          d.DirtyItems,
			DirtyEntities:       d.DirtyEntities,
			ChangedEdges:        d.ChangedEdges,
			DirtyRows:           len(d.DirtyRows),
			RankedNodes:         d.RankedNodes,
			DenseFallback:       d.DenseFallback,
			DenseFallbackReason: d.FallbackReason,
		}
		sp := obs.SpanFromContext(ctx)
		sp.SetAttr("dirtyItems", d.DirtyItems)
		sp.SetAttr("dirtyEntities", d.DirtyEntities)
		sp.SetAttr("changedEdges", d.ChangedEdges)
		sp.SetAttr("dirtyRows", len(d.DirtyRows))
		sp.SetAttr("rankedNodes", d.RankedNodes)
		sp.SetAttr("denseFallback", d.DenseFallback)
		if d.DenseFallback {
			sp.SetAttr("denseFallbackReason", d.FallbackReason)
		}
		return nil
	})
	cluster := fj.stage("parallel-hac", func(ctx context.Context) error {
		if cache.sizes == nil {
			cache.sizes = make([]int, len(b.Entities.Entities))
			for i := range cache.sizes {
				cache.sizes[i] = b.Entities.Entities[i].Size()
			}
		}
		res, err := ws.hac.Cluster(ctx, b.Graph, cache.sizes, cfg.HAC)
		if err != nil {
			return err
		}
		b.Dendrogram = res.Dendrogram
		b.Rounds = res.Rounds
		return nil
	})
	cut := fj.stage("taxonomy", func(ctx context.Context) error {
		tx, err := taxonomy.Build(ctx, b.Dendrogram, b.Entities, corpus, cfg.Taxonomy)
		b.Taxonomy = tx
		return err
	})
	// describe writes Topic.Description/DescQueries while
	// category-correlation reads only Topic.Categories, so the two can
	// share the taxonomy concurrently.
	describeTopics := fj.stage("describe", func(ctx context.Context) error {
		descs, err := ws.describe.Describe(ctx, b.Taxonomy, corpus, b.Clicks, cfg.Describe)
		b.Descriptions = descs
		return err
	})
	correlate := fj.stage("category-correlation", func(ctx context.Context) error {
		g, err := catcorr.Mine(ctx, b.Taxonomy, cfg.CatCorr)
		b.Correlations = g
		return err
	})
	index := fj.stage("search-index", func(ctx context.Context) error {
		if len(b.Taxonomy.Topics) == 0 {
			return nil
		}
		s, err := b.searchIndex(ctx, cfg.SearchDocTokenCap)
		b.Searcher = s
		return err
	})

	fj.parallel(inputs...)
	entityGraph()
	cluster()
	cut()
	fj.parallel(func() { describeTopics(); index() }, correlate)
	timings, err := fj.wait()
	if err != nil {
		return nil, err
	}
	b.StageTimings = timings
	return b, nil
}

// searchIndex is the search-index stage: it streams the per-topic search
// documents SearchDocIDs would assemble straight into the searcher's BM25
// postings, walking each twice (a count and a fill) and laying none of
// them out as an array. Under a traced context its one phase is the
// child span "build", with the ranges the build split into and the
// tokens it indexed.
func (b *Build) searchIndex(ctx context.Context, tokenCap int) (*taxonomy.Searcher, error) {
	a := b.searchDocs(tokenCap)
	sp := obs.SpanFromContext(ctx).Child("build")
	defer sp.End()
	sp.SetAttr("workers", par.Width(len(a.topics)))
	s, err := taxonomy.NewSearcherFrom(ctx, b.Taxonomy, &a, b.Corpus.Text().Vocab())
	if err != nil {
		return nil, err
	}
	sp.SetAttr("tokens", s.Tokens())
	return s, nil
}

// SearchDocs is SearchDocIDs spelled as tokens, for callers that index
// strings (taxonomy.NewSearcher); an empty document is nil.
func (b *Build) SearchDocs(tokenCap int) [][]string {
	text := b.Corpus.Text()
	ids := b.SearchDocIDs(tokenCap)
	total := 0
	for _, doc := range ids {
		total += len(doc)
	}
	flat := make([]string, 0, total)
	docs := make([][]string, len(ids))
	for i, doc := range ids {
		if len(doc) == 0 {
			continue
		}
		from := len(flat)
		flat = text.AppendTerms(flat, doc)
		docs[i] = flat[from:len(flat):len(flat)]
	}
	return docs
}

// SearchDocIDs assembles the per-topic search documents the search-index
// stage indexes — description queries, category names, member query
// texts and member title tokens, each doc capped at tokenCap tokens — as
// term ids of the corpus text plane's vocabulary. Every list is the
// plane's: b.Descriptions, one per topic as describe writes them, name
// their queries by corpus id, so nothing is tokenized here. The topics
// split into par ranges, each counting and filling its own topics'
// documents in one array of its own, so the output is the same at every
// width. At width 1 a call allocates the headers and one flat array, and
// nothing is kept between calls.
func (b *Build) SearchDocIDs(tokenCap int) [][]uint32 {
	a := b.searchDocs(tokenCap)
	a.docs = make([][]uint32, len(a.topics))
	var buf [8]int // up to 7 ranges' bounds stay on the stack
	bounds := par.Split(buf[:0], len(a.topics), a.Cost)
	_ = par.Run(bounds, a, docAssembler.assemble) // assembly has no failure to report
	return a.docs
}

// searchDocs is the search documents as a stream: the assembler whose
// walk the search index and SearchDocIDs share.
func (b *Build) searchDocs(tokenCap int) docAssembler {
	if tokenCap <= 0 {
		tokenCap = 256
	}
	return docAssembler{
		text:      b.Corpus.Text(),
		topics:    b.Taxonomy.Topics,
		descs:     b.Descriptions,
		querySets: b.QuerySets,
		tokenCap:  tokenCap,
	}
}

// docAssembler walks the search documents, one per topic: it is the
// search index's bm25.Docs source, and SearchDocIDs' state, shared by
// value with its ranges, each of which writes only its own topics' docs
// slots.
type docAssembler struct {
	text      *model.TextPlane
	topics    []taxonomy.Topic
	descs     []describe.Description
	querySets [][]model.QueryID
	tokenCap  int
	docs      [][]uint32
}

// Len is the number of documents, one per topic.
func (a *docAssembler) Len() int { return len(a.topics) }

// Cost weighs topic t's document by the id lists it is walked from, up
// to the token cap.
func (a *docAssembler) Cost(t int) int {
	tp := &a.topics[t]
	return min(a.tokenCap, len(a.descs[t].QueryIDs)+len(tp.Categories)+len(tp.Entities)+len(tp.Items)) + 1
}

// assemble writes the documents of topics [lo, hi): a counting walk
// sizes one array for them all, a second walk fills it.
func (a docAssembler) assemble(_, lo, hi int) error {
	n := 0
	for t := lo; t < hi; t++ {
		a.Walk(t, func(ids []uint32) { n += len(ids) })
	}
	flat := make([]uint32, 0, n)
	for t := lo; t < hi; t++ {
		from := len(flat)
		a.Walk(t, func(ids []uint32) { flat = append(flat, ids...) })
		a.docs[t] = flat[from:len(flat):len(flat)]
	}
	return nil
}

// Walk feeds topic t's document to part as id lists in document order,
// the last one cut to the token cap, and stops once the cap is reached.
func (a *docAssembler) Walk(t int, part func(ids []uint32)) {
	tp := &a.topics[t]
	room := a.tokenCap
	// feed passes ids on and reports whether the document is full.
	feed := func(ids []uint32) bool {
		ids = ids[:min(len(ids), room)]
		room -= len(ids)
		part(ids)
		return room == 0
	}
	for _, q := range a.descs[t].QueryIDs {
		if feed(a.text.Query(q)) {
			return
		}
	}
	for _, c := range tp.Categories {
		if feed(a.text.Category(c)) {
			return
		}
	}
	for _, e := range tp.Entities {
		for _, q := range a.querySets[e] {
			if feed(a.text.Query(q)) {
				return
			}
		}
	}
	for _, it := range tp.Items {
		if feed(a.text.Title(it)) {
			return
		}
	}
}
