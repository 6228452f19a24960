package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"shoal/internal/bipartite"
	"shoal/internal/catcorr"
	"shoal/internal/core"
	"shoal/internal/describe"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/phac"
	"shoal/internal/serve"
	"shoal/internal/taxonomy"
	"shoal/internal/textutil"
	"shoal/internal/word2vec"
)

// replay drives the incremental rebuild layer by layer from the
// benchmark, carrying the cross-build state (entity-graph IncState,
// clustering Memo, cached entities and embeddings) exactly as
// core/incremental.go does, with one span and one timing sample per
// call into a layer. The traced run feeds it the same days as the
// DailyPipeline and requires byte-equal taxonomies, which proves the
// spans decompose the same computation the untraced run times.
type replay struct {
	cfg     core.Config
	corpus  *model.Corpus
	clicks  *bipartite.Graph
	handler *serve.Handler
	trace   *obs.Trace

	entities *entitygraph.EntitySet
	emb      *word2vec.Model
	state    *entitygraph.IncState
	memo     *phac.Memo

	last *core.Build
	// One sample per slide, in ms unless named otherwise; the cold build
	// fills entitiesMs and word2vecMs once and is not sampled otherwise.
	ingestMs, graphMs, hacMs, taxonomyMs, describeMs, catcorrMs, docsMs, indexMs []float64
	rebuildMs, slideMs, swapUs                                                   []float64
	entitiesMs, word2vecMs                                                       float64
	// Counters summed (or, for booleans, counted) over slides.
	slides, dirtyItems, dirtyRows, changedEdges, denseFallbacks int
	seededRows, replayedRounds, hacRounds, coldClusterings      int
}

// newReplay resolves the defaulted widths the way core does, so the
// replay's layers run with the shard and worker counts of the pipeline.
func newReplay(corpus *model.Corpus, cfg core.Config) *replay {
	procs := runtime.GOMAXPROCS(0)
	cfg.Shards = procs
	cfg.Graph.Shards = procs
	cfg.HAC.Shards = procs
	cfg.HAC.Workers = procs
	return &replay{
		cfg:    cfg,
		corpus: corpus,
		clicks: bipartite.New(cfg.WindowDays),
		trace:  obs.NewTrace("shoal-benchmark"),
	}
}

// span runs fn under a child span of parent and returns its duration
// in ms.
func span(ctx context.Context, parent *obs.Span, name string, fn func(ctx context.Context, sp *obs.Span) error) (float64, error) {
	sp := parent.Child(name)
	t0 := time.Now()
	err := fn(obs.ContextWithSpan(ctx, sp), sp)
	el := ms(time.Since(t0))
	sp.End()
	if err != nil {
		return el, fmt.Errorf("replay: %s: %w", name, err)
	}
	return el, nil
}

// cold ingests the first window and runs the first build, timing the
// two corpus-static layers that later slides reuse from cache.
func (r *replay) cold(ctx context.Context, days [][]model.ClickEvent) error {
	root := r.trace.StartSpan("cold-build")
	defer root.End()
	for _, evs := range days {
		if err := r.clicks.AddAll(evs); err != nil {
			return fmt.Errorf("replay: ingest: %w", err)
		}
	}
	var err error
	r.entitiesMs, err = span(ctx, root, "entitygraph.entities", func(ctx context.Context, _ *obs.Span) error {
		es, err := entitygraph.BuildEntities(ctx, r.corpus)
		r.entities = es
		return err
	})
	if err != nil {
		return err
	}
	r.word2vecMs, err = span(ctx, root, "word2vec.train", func(ctx context.Context, _ *obs.Span) error {
		sentences := make([][]string, 0, len(r.corpus.Items))
		for i := range r.corpus.Items {
			sentences = append(sentences, textutil.Tokenize(r.corpus.Items[i].Title))
		}
		m, err := word2vec.Train(ctx, sentences, r.cfg.Word2Vec)
		r.emb = m
		return err
	})
	if err != nil {
		return err
	}
	b, _, err := r.rebuild(ctx, root, false)
	if err != nil {
		return err
	}
	r.last = b
	r.handler, err = serve.NewHandler(b)
	return err
}

// slide ingests one day, rebuilds layer by layer and swaps the result
// into the replay's own handler, under one root span per round.
func (r *replay) slide(ctx context.Context, round int, events []model.ClickEvent) (*core.Build, error) {
	root := r.trace.StartSpan("slide")
	defer root.End()
	root.SetAttr("trace_id", round)
	t0 := time.Now()
	ingest, err := span(ctx, root, "bipartite.ingest", func(context.Context, *obs.Span) error {
		return r.clicks.AddAll(events)
	})
	if err != nil {
		return nil, err
	}
	b, rebuild, err := r.rebuild(ctx, root, true)
	if err != nil {
		return nil, err
	}
	swap, err := span(ctx, root, "serve.swap", func(context.Context, *obs.Span) error {
		return r.handler.Swap(b)
	})
	if err != nil {
		return nil, err
	}
	r.slideMs = append(r.slideMs, ms(time.Since(t0)))
	r.ingestMs = append(r.ingestMs, ingest)
	r.rebuildMs = append(r.rebuildMs, rebuild)
	r.swapUs = append(r.swapUs, swap*1e3)
	r.slides++
	r.last = b
	return b, nil
}

// rebuild is the layered equivalent of core's incremental stage graph
// over the current window; record says whether to keep its samples.
func (r *replay) rebuild(ctx context.Context, root *obs.Span, record bool) (*core.Build, float64, error) {
	t0 := time.Now()
	cfg := r.cfg
	b := &core.Build{
		Corpus: r.corpus, Clicks: r.clicks, Entities: r.entities, Embeddings: r.emb,
		Workers: cfg.HAC.Workers, FrontierDensity: phac.DefaultFrontierDensity,
	}
	dirty := r.clicks.TakeChangedItems()

	var delta *entitygraph.Delta
	graphMs, err := span(ctx, root, "entitygraph.build", func(ctx context.Context, sp *obs.Span) error {
		res, nst, d, err := entitygraph.BuildIncremental(ctx, r.entities, r.clicks, r.emb, cfg.Graph, r.state, dirty)
		if err != nil {
			return err
		}
		r.state, delta = nst, d
		b.Graph, b.QuerySets, b.Shards = res.Graph, res.QuerySets, res.Graph.NumShards()
		b.Delta = &core.DeltaStats{
			Incremental: true, DirtyItems: d.DirtyItems, DirtyEntities: d.DirtyEntities,
			ChangedEdges: d.ChangedEdges, DirtyRows: len(d.DirtyRows), DenseFallback: d.DenseFallback,
		}
		sp.SetAttr("dirtyItems", d.DirtyItems)
		sp.SetAttr("dirtyRows", len(d.DirtyRows))
		sp.SetAttr("changedEdges", d.ChangedEdges)
		sp.SetAttr("denseFallback", d.DenseFallback)
		sp.SetAttr("edges", res.Graph.NumEdges())
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	hacMs, err := span(ctx, root, "phac.cluster", func(ctx context.Context, sp *obs.Span) error {
		sizes := make([]int, len(r.entities.Entities))
		for i := range sizes {
			sizes[i] = r.entities.Entities[i].Size()
		}
		prev, dirtyRows := r.memo, delta.DirtyRows
		cold := ""
		if delta.DenseFallback {
			prev, dirtyRows, cold = nil, nil, "dense-fallback"
		} else {
			cold = prev.IncompatibleReason(b.Graph.NumNodes(), cfg.HAC)
		}
		res, memo, err := phac.ClusterWarm(ctx, b.Graph, sizes, cfg.HAC, prev, dirtyRows)
		if err != nil {
			return err
		}
		r.memo = memo
		b.Dendrogram, b.Rounds, b.BSPStats = res.Dendrogram, res.Rounds, res.BSP
		if cold == "" {
			b.Delta.SeededRows = len(dirtyRows)
		}
		b.Delta.ReplayedRounds, b.Delta.ReplayedMerges, b.Delta.ClusterCold = res.ReplayedRounds, res.ReplayedMerges, cold
		sp.SetAttr("rounds", len(res.Rounds))
		sp.SetAttr("seededRows", b.Delta.SeededRows)
		sp.SetAttr("replayedRounds", res.ReplayedRounds)
		sp.SetAttr("cold", cold != "")
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	taxonomyMs, err := span(ctx, root, "taxonomy.build", func(ctx context.Context, sp *obs.Span) error {
		tx, err := taxonomy.Build(ctx, b.Dendrogram, b.Entities, b.Corpus, cfg.Taxonomy)
		if err != nil {
			return err
		}
		b.Taxonomy = tx
		sp.SetAttr("topics", len(tx.Topics))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// describe and catcorr share the taxonomy concurrently, and the
	// search index waits for describe only — core's stage graph.
	var wg sync.WaitGroup
	var catcorrMs float64
	var catcorrErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		catcorrMs, catcorrErr = span(ctx, root, "catcorr.mine", func(ctx context.Context, _ *obs.Span) error {
			g, err := catcorr.Mine(ctx, b.Taxonomy, cfg.CatCorr)
			b.Correlations = g
			return err
		})
	}()
	describeMs, err := span(ctx, root, "describe", func(ctx context.Context, _ *obs.Span) error {
		descs, err := describe.Describe(ctx, b.Taxonomy, b.Corpus, b.Clicks, cfg.Describe)
		b.Descriptions = descs
		return err
	})
	var docsMs, indexMs float64
	if err == nil {
		var docs [][]string
		docsMs, err = span(ctx, root, "searchindex.docs", func(context.Context, *obs.Span) error {
			docs = b.SearchDocs(cfg.SearchDocTokenCap)
			return nil
		})
		if err == nil {
			indexMs, err = span(ctx, root, "searchindex.build", func(ctx context.Context, _ *obs.Span) error {
				s, err := taxonomy.NewSearcher(ctx, b.Taxonomy, docs)
				b.Searcher = s
				return err
			})
		}
	}
	wg.Wait()
	if err == nil {
		err = catcorrErr
	}
	if err != nil {
		return nil, 0, err
	}
	total := ms(time.Since(t0))
	if !record {
		return b, total, nil
	}

	r.graphMs = append(r.graphMs, graphMs)
	r.hacMs = append(r.hacMs, hacMs)
	r.taxonomyMs = append(r.taxonomyMs, taxonomyMs)
	r.describeMs = append(r.describeMs, describeMs)
	r.catcorrMs = append(r.catcorrMs, catcorrMs)
	r.docsMs = append(r.docsMs, docsMs)
	r.indexMs = append(r.indexMs, indexMs)
	r.dirtyItems += delta.DirtyItems
	r.dirtyRows += len(delta.DirtyRows)
	r.changedEdges += delta.ChangedEdges
	r.seededRows += b.Delta.SeededRows
	r.replayedRounds += b.Delta.ReplayedRounds
	r.hacRounds += len(b.Rounds)
	if delta.DenseFallback {
		r.denseFallbacks++
	}
	if b.Delta.ClusterCold != "" {
		r.coldClusterings++
	}
	return b, total, nil
}
