package core

import (
	"context"
	"fmt"
	"sort"

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
	days   int
	last   *Build
	// cache is what each rebuild patches from: corpus-static artifacts
	// plus the previous build's entity-graph state.
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
	p.days++
	return nil
}

// Days returns the number of ingested days.
func (p *DailyPipeline) Days() int { return p.days }

// WindowStats reports the current window's query and item coverage.
func (p *DailyPipeline) WindowStats() (queries, items int, maxDay int32) {
	return p.clicks.Queries(), p.clicks.Items(), p.clicks.MaxDay()
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
		// artifacts (entities, embeddings) survive.
		p.cache.graphState = nil
		return nil, err
	}
	p.last = b
	return b, nil
}

// Last returns the most recent build, or nil before the first Rebuild.
func (p *DailyPipeline) Last() *Build { return p.last }

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
	// Group items by prev root topic.
	groups := make(map[int32][]int)
	for it := range prev.Taxonomy.ItemTopic {
		r := rootOf(prev, it)
		if r >= 0 {
			groups[r] = append(groups[r], it)
		}
	}
	keys := make([]int32, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var pairs, kept int
	for _, k := range keys {
		members := groups[k]
		// Cap per-group pair enumeration: adjacent pairs plus a stride,
		// enough signal without O(n²) blowup on big topics.
		for i := 1; i < len(members); i++ {
			pairs++
			if rootOf(next, members[i-1]) == rootOf(next, members[i]) && rootOf(next, members[i]) >= 0 {
				kept++
			}
		}
	}
	if pairs == 0 {
		return 0, fmt.Errorf("core: previous build has no topic pairs")
	}
	return float64(kept) / float64(pairs), nil
}
