package core

import (
	"context"
	"fmt"
	"time"

	"shoal/internal/bipartite"
	"shoal/internal/model"
)

// DailyPipeline maintains SHOAL over a live click stream. The production
// system (§3) builds from "a sliding window containing search queries in
// the last seven days" and refreshes continuously; this type models that
// operation: ingest each day's click events, then rebuild the taxonomy
// from whatever the window currently holds.
type DailyPipeline struct {
	cfg    Config
	corpus *model.Corpus
	clicks *bipartite.Graph
	last   *Build
	// cache is what each rebuild patches from: corpus-static artifacts,
	// the previous build's entity-graph state and the stages' workspaces.
	cache rebuildCache
}

// NewDailyPipeline prepares a pipeline over a static catalog (the corpus's
// own click log is ignored; clicks arrive through IngestDay).
func NewDailyPipeline(corpus *model.Corpus, cfg Config) (*DailyPipeline, error) {
	if err := corpus.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &DailyPipeline{
		cfg:    cfg,
		corpus: corpus,
		clicks: bipartite.New(cfg.WindowDays),
	}, nil
}

// IngestDay feeds one day's click events into the sliding window via
// the batched fast path (one eviction pass per call). Events must carry
// non-decreasing Day values across calls (the window evicts by the
// newest day seen); a rejected batch leaves the window untouched.
func (p *DailyPipeline) IngestDay(events []model.ClickEvent) error {
	for _, ev := range events {
		if int(ev.Query) < 0 || int(ev.Query) >= len(p.corpus.Queries) {
			return fmt.Errorf("core: click references unknown query %d", ev.Query)
		}
		if int(ev.Item) < 0 || int(ev.Item) >= len(p.corpus.Items) {
			return fmt.Errorf("core: click references unknown item %d", ev.Item)
		}
	}
	if err := p.clicks.AddAll(events); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Window reports the full window statistics, including the count of
// stale (already-evicted-day) events dropped at ingestion.
func (p *DailyPipeline) Window() bipartite.WindowStats {
	return p.clicks.Stats()
}

// Rebuild runs the pipeline over the current window and remembers the
// result for Stability comparisons.
func (p *DailyPipeline) Rebuild() (*Build, error) {
	return p.RebuildContext(context.Background())
}

// RebuildContext is Rebuild with cancellation: a canceled ctx aborts the
// in-flight build without touching the last published one. The window's
// changed items are drained and the entity graph is patched from them
// instead of rebuilt; clustering and every later stage run as in a
// one-shot build, so the output is byte-identical to one. A failed
// rebuild loses the drained delta, and the next one rebuilds the graph
// from scratch (Delta.DenseFallbackReason "no-state") before the patch
// path resumes.
func (p *DailyPipeline) RebuildContext(ctx context.Context) (*Build, error) {
	b, err := run(ctx, p.corpus, p.clicks, p.cfg, &p.cache, p.clicks.TakeChangedItems())
	if err != nil {
		// The drained delta is lost with the failed build: the cached
		// graph state no longer describes any window the next rebuild
		// could diff against, so cold-start it. The corpus-static
		// artifacts (entities, embeddings) survive; the workspaces, which
		// the failed stages may have left anywhere, go with the state.
		p.cache.graphState = nil
		p.cache.ws = nil
		return nil, err
	}
	p.last = b
	return b, nil
}

// Last returns the most recent build, or nil before the first Rebuild.
func (p *DailyPipeline) Last() *Build { return p.last }

// StepReport accounts for one Step: what the day's ingest and the
// rebuild cost, what the window holds after the day, what the rebuild
// recomputed of the previous build, and how much of that build's topic
// structure the new one kept.
type StepReport struct {
	Ingest, Rebuild time.Duration
	Window          bipartite.WindowStats
	Topics          int
	Delta           DeltaStats
	// Stability is Stability(previous build, this build). HasStability
	// is false on the first step and when Stability errors.
	Stability    float64
	HasStability bool
}

// String is the loop's log line.
func (r StepReport) String() string {
	stability := "-"
	if r.HasStability {
		stability = fmt.Sprintf("%.3f", r.Stability)
	}
	d := r.Delta
	line := fmt.Sprintf("rebuilt in %v ingest=%v topics=%d stability=%s window-queries=%d window-items=%d"+
		" dirty-items=%d dirty-entities=%d ranked-nodes=%d dirty-rows=%d changed-edges=%d dense-fallback=%v",
		r.Rebuild.Round(time.Millisecond), r.Ingest.Round(time.Microsecond), r.Topics, stability,
		r.Window.Queries, r.Window.Items,
		d.DirtyItems, d.DirtyEntities, d.RankedNodes, d.DirtyRows, d.ChangedEdges, d.DenseFallback)
	if d.DenseFallback {
		line += " dense-fallback-reason=" + d.DenseFallbackReason
	}
	return line
}

// Step is one turn of the production loop: it ingests a day of clicks
// (IngestDay), rebuilds from the window (RebuildContext), and measures
// the new build's Stability against the previous successful one. A
// rejected batch leaves the window untouched; a failed rebuild leaves
// Last alone, and the next step rebuilds the entity graph from scratch.
func (p *DailyPipeline) Step(ctx context.Context, events []model.ClickEvent) (*Build, StepReport, error) {
	var r StepReport
	start := time.Now()
	if err := p.IngestDay(events); err != nil {
		return nil, r, err
	}
	r.Ingest = time.Since(start)
	prev := p.last
	start = time.Now()
	b, err := p.RebuildContext(ctx)
	if err != nil {
		return nil, r, err
	}
	r.Rebuild = time.Since(start)
	r.Window, r.Topics, r.Delta = p.Window(), len(b.Taxonomy.Topics), *b.Delta
	if prev != nil {
		r.Stability, err = Stability(prev, b)
		r.HasStability = err == nil
	}
	return b, r, nil
}

// Stability measures how much of the previous build's topic structure the
// new build preserves: the fraction of item pairs that were topic-mates in
// prev and are still topic-mates in next, sampled over prev's root topics.
// 1 means the taxonomy is unchanged at the pair level; values near 0 mean
// a reshuffle. Production systems watch exactly this signal before
// publishing a daily build.
func Stability(prev, next *Build) (float64, error) {
	if prev == nil || next == nil {
		return 0, fmt.Errorf("core: Stability requires two builds")
	}
	if len(prev.Taxonomy.ItemTopic) != len(next.Taxonomy.ItemTopic) {
		return 0, fmt.Errorf("core: builds cover different catalogs")
	}
	rootOf := func(b *Build, it int) int32 {
		tid := b.Taxonomy.ItemTopic[it]
		if tid < 0 {
			return -1
		}
		root, err := b.Taxonomy.RootOf(tid)
		if err != nil {
			return -1
		}
		return int32(root)
	}
	// Adjacent members of each prev root topic, in item order: enough
	// signal without O(n²) blowup on big topics. last[r] is root r's latest
	// member plus one, 0 before its first.
	last := make([]int32, len(prev.Taxonomy.Topics))
	var pairs, kept int
	for it := range prev.Taxonomy.ItemTopic {
		r := rootOf(prev, it)
		if r < 0 {
			continue
		}
		if m := int(last[r]) - 1; m >= 0 {
			pairs++
			if nr := rootOf(next, it); nr >= 0 && rootOf(next, m) == nr {
				kept++
			}
		}
		last[r] = int32(it + 1)
	}
	if pairs == 0 {
		return 0, fmt.Errorf("core: previous build has no topic pairs")
	}
	return float64(kept) / float64(pairs), nil
}
