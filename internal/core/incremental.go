package core

import (
	"context"
	"fmt"

	"shoal/internal/bipartite"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/phac"
	"shoal/internal/word2vec"
)

// DeltaStats summarizes what an incremental rebuild actually recomputed
// — the numbers that explain why the rebuild was (or was not) cheap.
type DeltaStats struct {
	// Incremental is true when the rebuild ran the delta-driven path at
	// all (Config.Incremental via DailyPipeline).
	Incremental bool
	// DirtyItems is the number of window items whose query-set
	// membership changed since the previous rebuild (ingested plus
	// evicted days); DirtyEntities the entities those items map to.
	DirtyItems    int
	DirtyEntities int
	// ChangedEdges is the number of kept entity-graph edges that
	// appeared, disappeared or changed weight; DirtyRows the graph rows
	// those changes touch — the rows the CSR patch rewrote and the
	// clustering warm start re-seeded. Both are zero on a dense fallback
	// decided before the delta was computed (see DenseFallbackReason).
	ChangedEdges int
	DirtyRows    int
	// SeededRows is the number of rows handed to the clustering warm
	// start; 0 when clustering ran cold (first build, dense fallback, or
	// an incompatible memo).
	SeededRows int
	// ReplayedRounds and ReplayedMerges count the merge rounds (and the
	// merges within them) the clustering warm start replayed from the
	// previous build's trajectory instead of recomputing; zero on a cold
	// clustering.
	ReplayedRounds int
	ReplayedMerges int
	// ClusterCold names why clustering ignored the cross-build memo and
	// ran cold — "dense-fallback" when the entity-graph delta forced a
	// from-scratch graph, otherwise phac's incompatibility reason
	// ("no-memo", "node-count", "diffusion-rounds", "stop-threshold").
	// Empty when the warm start engaged.
	ClusterCold string
	// DenseFallback is true when the entity-graph delta was judged too
	// dense to patch (or no previous state existed) and the graph was
	// rebuilt from scratch; DenseFallbackReason names the gate that
	// decided it — "no-state", "dirty-entities", "pair-delta-volume" or
	// "dirty-rows" (entitygraph.Fallback*), empty when the patch ran.
	DenseFallback       bool
	DenseFallbackReason string
}

// rebuildCache is the cross-build state one incremental rebuild hands
// to the next: the static per-corpus artifacts (entities, embeddings)
// plus the delta-merge state of the entity graph and the clustering
// diffusion memo. Owned by DailyPipeline; zero value means cold.
type rebuildCache struct {
	entities   *entitygraph.EntitySet
	embeddings *word2vec.Model
	haveEmb    bool
	graphState *entitygraph.IncState
	memo       *phac.Memo
}

// invalidate drops the window-dependent state — after a failed rebuild
// the drained item delta is lost, so the cached graph state and memo no
// longer describe any window the next rebuild could diff against. The
// corpus-static artifacts (entities, embeddings) survive.
func (c *rebuildCache) invalidate() {
	c.graphState, c.memo = nil, nil
}

// runIncremental executes the delta-driven rebuild over the current
// window: the entity graph is patched from dirtyItems against the
// cached previous build and clustering warm-starts from the cached
// diffusion memo, with every downstream stage (taxonomy, describe,
// correlations, search) identical to the from-scratch pipeline. The
// stage graph runs through the same Engine, so StageTimings and the
// build Trace keep their shape. cache is updated in place as stages
// succeed; on error the caller must invalidate it.
func runIncremental(ctx context.Context, corpus *model.Corpus, clicks *bipartite.Graph, cfg Config, cache *rebuildCache, dirtyItems []model.ItemID) (*Build, error) {
	if err := corpus.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg = resolveConfig(cfg)
	density := cfg.HAC.FrontierDensity
	if density == 0 {
		density = phac.DefaultFrontierDensity
	}
	b := &Build{
		Corpus: corpus, Clicks: clicks,
		Workers:         cfg.HAC.Workers,
		FrontierDensity: density,
		BSPEnabled:      cfg.HAC.UseBSP,
		Trace:           obs.NewTrace("shoal-build"),
	}
	eng, err := NewEngine(incrementalStages(cfg, cache, dirtyItems)...)
	if err != nil {
		return nil, err
	}
	maxConcurrent := 0
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

// incrementalStages declares the delta-driven build graph. Same shape
// as pipelineStages with an external click graph, but the three
// expensive stages consult the cross-build cache: entities and
// embeddings are corpus-static and computed once, the entity graph is
// delta-merged, and clustering is seeded with the previous build's
// diffusion state.
func incrementalStages(cfg Config, cache *rebuildCache, dirtyItems []model.ItemID) []Stage {
	graphDeps := []string{"entities"}
	var stages []Stage
	// delta carries the entity-graph stage's result to the clustering
	// stage; safe without locks because parallel-hac depends on
	// entity-graph-delta.
	var delta *entitygraph.Delta

	stages = append(stages, StageFunc("entities", nil, func(ctx context.Context, b *Build) error {
		if cache.entities == nil {
			es, err := entitygraph.BuildEntities(ctx, b.Corpus)
			if err != nil {
				return err
			}
			cache.entities = es
		}
		b.Entities = cache.entities
		return nil
	}))

	if cfg.TrainEmbeddings {
		stages = append(stages, StageFunc("word2vec", nil, func(ctx context.Context, b *Build) error {
			if !cache.haveEmb {
				m, err := word2vec.Train(ctx, titleSentences(b.Corpus), cfg.Word2Vec)
				if err != nil {
					return err
				}
				cache.embeddings, cache.haveEmb = m, true
			}
			b.Embeddings = cache.embeddings
			return nil
		}))
		graphDeps = append(graphDeps, "word2vec")
	}

	stages = append(stages,
		StageFunc("entity-graph-delta", graphDeps, func(ctx context.Context, b *Build) error {
			// The state changes hands for the call: a dense fallback
			// drops it before building its replacement, and an error
			// invalidates it anyway.
			st := cache.graphState
			cache.graphState = nil
			res, nst, d, err := entitygraph.BuildIncremental(ctx, b.Entities, b.Clicks, b.Embeddings, cfg.Graph, st, dirtyItems)
			if err != nil {
				return err
			}
			cache.graphState = nst
			delta = d
			b.Graph = res.Graph
			b.QuerySets = res.QuerySets
			b.Shards = res.Graph.NumShards()
			b.Delta = &DeltaStats{
				Incremental:         true,
				DirtyItems:          d.DirtyItems,
				DirtyEntities:       d.DirtyEntities,
				ChangedEdges:        d.ChangedEdges,
				DirtyRows:           len(d.DirtyRows),
				DenseFallback:       d.DenseFallback,
				DenseFallbackReason: d.FallbackReason,
			}
			sp := obs.SpanFromContext(ctx)
			sp.SetAttr("dirtyItems", d.DirtyItems)
			sp.SetAttr("dirtyEntities", d.DirtyEntities)
			sp.SetAttr("changedEdges", d.ChangedEdges)
			sp.SetAttr("dirtyRows", len(d.DirtyRows))
			sp.SetAttr("denseFallback", d.DenseFallback)
			if d.DenseFallback {
				sp.SetAttr("denseFallbackReason", d.FallbackReason)
			}
			return nil
		}),
		StageFunc("parallel-hac", []string{"entity-graph-delta"}, func(ctx context.Context, b *Build) error {
			sizes := make([]int, len(b.Entities.Entities))
			for i := range sizes {
				sizes[i] = b.Entities.Entities[i].Size()
			}
			prev := cache.memo
			var dirtyRows []int32
			coldReason := ""
			if delta.DenseFallback {
				// A dense fallback rebuilt the graph without tracking
				// which rows moved, so the memo's dirty-rows contract
				// cannot be met: run cold (and capture a fresh memo).
				prev = nil
				coldReason = "dense-fallback"
			} else {
				dirtyRows = delta.DirtyRows
				if r := prev.IncompatibleReason(b.Graph.NumNodes(), cfg.HAC); r != "" {
					coldReason = r
				}
			}
			seeded := 0
			if coldReason == "" {
				seeded = len(dirtyRows)
			}
			res, memo, err := phac.ClusterWarm(ctx, b.Graph, sizes, cfg.HAC, prev, dirtyRows)
			if err != nil {
				return err
			}
			cache.memo = memo
			b.Dendrogram = res.Dendrogram
			b.Rounds = res.Rounds
			b.BSPStats = res.BSP
			b.Delta.SeededRows = seeded
			b.Delta.ReplayedRounds = res.ReplayedRounds
			b.Delta.ReplayedMerges = res.ReplayedMerges
			b.Delta.ClusterCold = coldReason
			sp := obs.SpanFromContext(ctx)
			sp.SetAttr("seededRows", seeded)
			sp.SetAttr("replayedRounds", res.ReplayedRounds)
			sp.SetAttr("replayedMerges", res.ReplayedMerges)
			if coldReason != "" {
				sp.SetAttr("clusterCold", coldReason)
			}
			return nil
		}),
	)
	return append(stages, downstreamStages(cfg)...)
}
