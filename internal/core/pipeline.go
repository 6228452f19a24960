// Package core orchestrates the SHOAL framework end to end (paper §2):
// click logs → item entity graph → Parallel HAC → hierarchical topics →
// topic descriptions → category correlations. Each stage is an internal
// package; this package owns the stage graph, configuration and timing.
//
// Stages are declared as a dependency graph (see pipelineStages) and
// executed by the Engine: independent stages — e.g. word2vec next to the
// click-graph and entity formation — run concurrently, while every
// read-after-write relation is an explicit edge, so the concurrent
// schedule produces output identical to the sequential one.
//
// DailyPipeline maintains the production sliding-window operation, and
// Config.Incremental (shoal-build/shoal-serve -incremental) switches its
// rebuilds to the delta-driven path: the window's changed items are
// drained each rebuild, the entity graph is patched rather than rebuilt,
// and Build.Delta reports what the patch touched — with output
// byte-identical to a from-scratch rebuild of the same window.
// Clustering and every stage after it run from scratch on every build,
// as the paper's Parallel HAC does (ROADMAP, "Why clustering runs cold
// on every slide").
//
// Every build is deterministic: a corpus and a Config determine the
// output byte for byte — word2vec included, which trains serially from
// its seed — whatever the schedule, the entity graph's worker count,
// GOMAXPROCS, or incremental versus from scratch.
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
	"shoal/internal/phac"
	"shoal/internal/taxonomy"
	"shoal/internal/textutil"
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
	// Sequential forces stages to run one at a time in topological order
	// instead of concurrently. Output is identical either way; this is
	// the debugging / benchmark baseline.
	Sequential bool
	// Shards is read by nothing, written only by the frozen
	// benchmark/replay.go: the graph substrate is one CSR. The next
	// benchmark-archetype PR deletes it.
	Shards   int
	Word2Vec word2vec.Config
	Graph    entitygraph.Config
	// Incremental makes DailyPipeline.Rebuild reuse the previous build's
	// entity graph: it is patched from the window's changed items
	// (entitygraph.BuildIncremental) instead of rebuilt; every later
	// stage, clustering included, runs from scratch. Output is
	// byte-identical to a from-scratch rebuild at every step (locked by
	// the determinism suite in incremental_test.go), embeddings on or off;
	// embeddings are trained once and reused. What each patch touched is
	// reported in Build.Delta and /api/stats. Only DailyPipeline consults
	// this knob; one-shot Run ignores it.
	Incremental bool
	// HAC also carries the frontier-pruned diffusion knob
	// (HAC.FrontierDensity, surfaced as shoal-build/-serve -frontier):
	// clustering recomputes only changed diffusion frontiers when the
	// changed fraction stays under it, with byte-identical output for
	// every setting.
	HAC      phac.Config
	Taxonomy taxonomy.Config
	Describe describe.Config
	CatCorr  catcorr.Config
	// SearchDocTokenCap bounds tokens contributed per topic to the
	// search index.
	SearchDocTokenCap int
}

// DefaultConfig mirrors the paper's demonstration settings (α=0.7, r=2,
// 7-day window, correlation threshold 10).
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
	// FrontierDensity is the resolved frontier-pruning density gate —
	// the build configuration that explains the numbers next to it in
	// /api/stats and shoal-build -v.
	FrontierDensity float64
	// Workers and BSPStats are read by nothing, written only by the
	// frozen benchmark/replay.go; the next benchmark-archetype PR deletes
	// them.
	Workers    int
	BSPStats   *phac.NoStats
	Embeddings *word2vec.Model
	Dendrogram *dendrogram.Dendrogram
	Rounds     []phac.RoundStat
	// Delta summarizes what an incremental rebuild actually recomputed;
	// nil on from-scratch builds. Reported by /api/stats.
	Delta        *DeltaStats
	Taxonomy     *taxonomy.Taxonomy
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
	return run(ctx, corpus, nil, cfg, pipelineStages(cfg, false))
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
	return run(ctx, corpus, clicks, cfg, pipelineStages(cfg, true))
}

// run is the one build driver: it executes stages — the from-scratch
// graph or the incremental one, both declared over the same cfg —
// through the Engine and assembles the Build they fill in.
func run(ctx context.Context, corpus *model.Corpus, clicks *bipartite.Graph, cfg Config, stages []Stage) (*Build, error) {
	if err := corpus.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	density := cfg.HAC.FrontierDensity
	if density == 0 {
		density = phac.DefaultFrontierDensity
	}
	b := &Build{
		Corpus: corpus, Clicks: clicks,
		FrontierDensity: density,
		Trace:           obs.NewTrace("shoal-build"),
	}
	eng, err := NewEngine(stages...)
	if err != nil {
		return nil, err
	}
	maxConcurrent := 0 // full graph parallelism
	if cfg.Sequential {
		maxConcurrent = 1
	}
	timings, err := eng.Execute(ctx, b, maxConcurrent)
	if err != nil {
		return nil, err
	}
	b.StageTimings = timings
	return b, nil
}

// pipelineStages declares the SHOAL build graph. Dependency edges encode
// every read-after-write relation between stages:
//
//	click-graph ─┬─▶ entity-graph ─▶ parallel-hac ─▶ taxonomy ─┬─▶ describe ─▶ search-index
//	entities ────┤                                             └─▶ category-correlation
//	word2vec ────┘
//
// click-graph is omitted when the caller supplies an external click graph,
// and word2vec when embeddings are disabled.
func pipelineStages(cfg Config, externalClicks bool) []Stage {
	var stages []Stage
	graphDeps := []string{"entities"}

	if !externalClicks {
		stages = append(stages, StageFunc("click-graph", nil, func(ctx context.Context, b *Build) error {
			b.Clicks = bipartite.New(cfg.WindowDays)
			return b.Clicks.AddAll(b.Corpus.Clicks)
		}))
		graphDeps = append(graphDeps, "click-graph")
	}

	stages = append(stages, StageFunc("entities", nil, func(ctx context.Context, b *Build) error {
		es, err := entitygraph.BuildEntities(ctx, b.Corpus)
		b.Entities = es
		return err
	}))

	if cfg.TrainEmbeddings {
		stages = append(stages, StageFunc("word2vec", nil, func(ctx context.Context, b *Build) error {
			m, err := word2vec.Train(ctx, titleSentences(b.Corpus), cfg.Word2Vec)
			b.Embeddings = m
			return err
		}))
		graphDeps = append(graphDeps, "word2vec")
	}

	stages = append(stages,
		StageFunc("entity-graph", graphDeps, func(ctx context.Context, b *Build) error {
			res, err := entitygraph.Build(ctx, b.Entities, b.Clicks, b.Embeddings, cfg.Graph)
			if err != nil {
				return err
			}
			b.Graph = res.Graph
			b.QuerySets = res.QuerySets
			return nil
		}),
		clusterStage(cfg, "entity-graph"),
	)
	return append(stages, downstreamStages(cfg)...)
}

// clusterStage declares the "parallel-hac" stage behind graphStage, the
// stage that publishes b.Graph: one from-scratch phac.Cluster per build,
// whichever driver built the graph.
func clusterStage(cfg Config, graphStage string) Stage {
	return StageFunc("parallel-hac", []string{graphStage}, func(ctx context.Context, b *Build) error {
		sizes := make([]int, len(b.Entities.Entities))
		for i := range sizes {
			sizes[i] = b.Entities.Entities[i].Size()
		}
		res, err := phac.Cluster(ctx, b.Graph, sizes, cfg.HAC)
		if err != nil {
			return err
		}
		b.Dendrogram = res.Dendrogram
		b.Rounds = res.Rounds
		return nil
	})
}

// downstreamStages declares the post-clustering half of the build graph
// — taxonomy assembly onward — shared verbatim by the from-scratch and
// incremental stage lists.
func downstreamStages(cfg Config) []Stage {
	return []Stage{
		StageFunc("taxonomy", []string{"parallel-hac"}, func(ctx context.Context, b *Build) error {
			tx, err := taxonomy.Build(ctx, b.Dendrogram, b.Entities, b.Corpus, cfg.Taxonomy)
			b.Taxonomy = tx
			return err
		}),
		// describe writes Topic.Description/DescQueries while
		// category-correlation reads only Topic.Categories, so the two can
		// share the taxonomy concurrently.
		StageFunc("describe", []string{"taxonomy"}, func(ctx context.Context, b *Build) error {
			descs, err := describe.Describe(ctx, b.Taxonomy, b.Corpus, b.Clicks, cfg.Describe)
			b.Descriptions = descs
			return err
		}),
		StageFunc("category-correlation", []string{"taxonomy"}, func(ctx context.Context, b *Build) error {
			g, err := catcorr.Mine(ctx, b.Taxonomy, cfg.CatCorr)
			b.Correlations = g
			return err
		}),
		StageFunc("search-index", []string{"describe"}, func(ctx context.Context, b *Build) error {
			if len(b.Taxonomy.Topics) == 0 {
				return nil
			}
			parent := obs.SpanFromContext(ctx)
			sp := parent.Child("docs")
			docs, vocab := b.SearchDocIDs(cfg.SearchDocTokenCap)
			sp.End()
			sp = parent.Child("build")
			tokens := 0
			for _, doc := range docs {
				tokens += len(doc)
			}
			sp.SetAttr("tokens", tokens)
			s, err := taxonomy.NewSearcherIDs(ctx, b.Taxonomy, docs, vocab)
			sp.End()
			b.Searcher = s
			return err
		}),
	}
}

// titleSentences returns every item title as a token sentence — the
// word2vec training input — read from the corpus text plane into one
// shared backing array.
func titleSentences(c *model.Corpus) [][]string {
	text := c.Text()
	flat := make([]string, 0, text.TitleTokens())
	sentences := make([][]string, len(c.Items))
	for i := range c.Items {
		from := len(flat)
		flat = text.AppendTerms(flat, text.Title(model.ItemID(i)))
		sentences[i] = flat[from:len(flat):len(flat)]
	}
	return sentences
}

// SearchDocs is SearchDocIDs spelled as tokens, for callers that index
// strings (taxonomy.NewSearcher); an empty document is nil.
func (b *Build) SearchDocs(tokenCap int) [][]string {
	ids, vocab := b.SearchDocIDs(tokenCap)
	words := vocab.Words()
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
		for _, id := range doc {
			flat = append(flat, words[id])
		}
		docs[i] = flat[from:len(flat):len(flat)]
	}
	return docs
}

// SearchDocIDs assembles the per-topic search documents the search-index
// stage indexes — description queries, category names, member query
// texts and member title tokens, each doc capped at tokenCap tokens — as
// term ids of the returned vocabulary, in one flat array sized by a
// counting pass. Token lists come from the corpus text plane and the
// vocabulary is the plane's. Only a description string the corpus does
// not contain — a taxonomy described elsewhere — is tokenized here, and
// only a token of it the plane lacks makes the vocabulary a clone of the
// plane's with that token added.
func (b *Build) SearchDocIDs(tokenCap int) ([][]uint32, *textutil.Vocab) {
	if tokenCap <= 0 {
		tokenCap = 256
	}
	text := b.Corpus.Text()
	a := docAssembler{text: text, vocab: text.Vocab(), querySets: b.QuerySets, tokenCap: tokenCap}
	topics := b.Taxonomy.Topics
	total := 0
	for i := range topics {
		a.walk(&topics[i], func(ids []uint32) { total += len(ids) })
	}
	flat := make([]uint32, 0, total)
	docs := make([][]uint32, len(topics))
	for i := range topics {
		from := len(flat)
		a.walk(&topics[i], func(ids []uint32) { flat = append(flat, ids...) })
		docs[i] = flat[from:len(flat):len(flat)]
	}
	return docs, a.vocab
}

// docAssembler walks topics' search documents for SearchDocIDs.
type docAssembler struct {
	text      *model.TextPlane
	vocab     *textutil.Vocab
	querySets [][]model.QueryID
	tokenCap  int
	desc      []uint32 // ids of the last corpus-unknown description
}

// walk feeds topic t's document to part as id lists in document order,
// the last one cut to the token cap, and stops once the cap is reached.
func (a *docAssembler) walk(t *taxonomy.Topic, part func(ids []uint32)) {
	room := a.tokenCap
	// feed passes ids on and reports whether the document is full.
	feed := func(ids []uint32) bool {
		ids = ids[:min(len(ids), room)]
		room -= len(ids)
		part(ids)
		return room == 0
	}
	for _, q := range t.DescQueries {
		if feed(a.descIDs(q)) {
			return
		}
	}
	for _, c := range t.Categories {
		if feed(a.text.Category(c)) {
			return
		}
	}
	for _, e := range t.Entities {
		for _, q := range a.querySets[e] {
			if feed(a.text.Query(q)) {
				return
			}
		}
	}
	for _, it := range t.Items {
		if feed(a.text.Title(it)) {
			return
		}
	}
}

// descIDs returns a description query's term ids: the corpus query's
// list when the corpus carries the text, else TokenizeFiltered(q)
// resolved in a.vocab — which becomes a clone of the plane's vocabulary
// on the first token the plane lacks. The slice is valid until the next
// call.
func (a *docAssembler) descIDs(q string) []uint32 {
	if id, ok := a.text.LookupQuery(q); ok {
		return a.text.Query(id)
	}
	a.desc = a.desc[:0]
	for _, tok := range textutil.TokenizeFiltered(q) {
		id, ok := a.vocab.ID(tok)
		if !ok {
			if a.vocab == a.text.Vocab() {
				a.vocab = a.vocab.Clone()
			}
			id = a.vocab.Add(tok)
		}
		a.desc = append(a.desc, uint32(id))
	}
	return a.desc
}
