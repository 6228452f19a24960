package core

import (
	"context"

	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/obs"
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
	// those changes touch — the rows the CSR patch rewrote. Both are zero
	// on a dense fallback, which has nothing to compare against.
	ChangedEdges int
	DirtyRows    int
	// RankedNodes is the number of entity-graph nodes that re-ranked
	// their TopK: on a patch, those a changed pair could cross.
	RankedNodes int
	// SeededRows, ReplayedRounds, ReplayedMerges and ClusterCold are
	// written by nothing in this module and read only by the frozen
	// benchmark/replay.go, which fills them on its own builds; the next
	// benchmark-archetype PR deletes them with those uses.
	SeededRows     int
	ReplayedRounds int
	ReplayedMerges int
	ClusterCold    string
	// DenseFallback is true when the entity-graph delta was judged too
	// dense to patch (or no previous state existed) and the graph was
	// built with every entity dirty; DenseFallbackReason says which —
	// "no-state" or "dirty-pairs" (entitygraph.Fallback*), empty when
	// the patch ran.
	DenseFallback       bool
	DenseFallbackReason string
}

// rebuildCache is the cross-build state one incremental rebuild hands
// to the next: the static per-corpus artifacts (entities, embeddings)
// plus the delta-merge state of the entity graph. Clustering keeps
// nothing across builds. Owned by DailyPipeline; zero value means cold.
type rebuildCache struct {
	entities   *entitygraph.EntitySet
	embeddings *word2vec.Model
	haveEmb    bool
	graphState *entitygraph.IncState
}

// incrementalStages declares the delta-driven build graph. Same shape
// as pipelineStages with an external click graph, but the stages ahead
// of clustering consult the cross-build cache: entities and embeddings
// are corpus-static and computed once, and the entity graph is patched
// from dirtyItems against the cached previous build. Clustering and
// everything downstream are the from-scratch stages. cache is updated
// in place as stages succeed; on error the caller must drop its
// graphState.
func incrementalStages(cfg Config, cache *rebuildCache, dirtyItems []model.ItemID) []Stage {
	graphDeps := []string{"entities"}
	var stages []Stage

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
			b.Graph = res.Graph
			b.QuerySets = res.QuerySets
			b.Delta = &DeltaStats{
				Incremental:         true,
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
		}),
		clusterStage(cfg, "entity-graph-delta"),
	)
	return append(stages, downstreamStages(cfg)...)
}
