package core

import (
	"shoal/internal/describe"
	"shoal/internal/entitygraph"
	"shoal/internal/phac"
	"shoal/internal/word2vec"
)

// DeltaStats summarizes what a build recomputed of the previous one —
// the numbers that explain why a rebuild was (or was not) cheap.
type DeltaStats struct {
	// Incremental is read by nothing, written only by the frozen
	// benchmark/replay.go: every build runs the one delta-driven path.
	// The next benchmark-archetype PR deletes it.
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

// rebuildCache is the cross-build state one build hands to the next:
// the static per-corpus artifacts (entities, embeddings), the delta-merge
// state of the entity graph and the stages' workspaces. Clustering keeps
// no result across builds, only the arrays it works in. DailyPipeline
// owns one for its lifetime; a one-shot build runs over a fresh one. The
// zero value means cold.
type rebuildCache struct {
	entities *entitygraph.EntitySet
	// sizes are the entities' item counts, clustering's initial cluster
	// sizes.
	sizes      []int
	embeddings *word2vec.Model
	haveEmb    bool
	graphState *entitygraph.IncState
	// ws is the scratch one build leaves to the next, nil until a build
	// needs it. Nothing a published Build references is in it, and a
	// failed build drops it with graphState.
	ws *workspaces
}

// workspaces are the stages' workspaces: each stage that runs in one
// re-slices the arrays the last build left instead of allocating. The
// stages that share a workspace never run concurrently.
type workspaces struct {
	graph    entitygraph.Workspace
	hac      phac.Workspace
	describe describe.Workspace
}
