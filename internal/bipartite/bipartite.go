// Package bipartite implements the query-item bipartite click graph of
// paper Fig. 2. It ingests click events, retains a sliding window of the
// last W days (the production system uses seven), and answers the two
// questions SHOAL asks of it:
//
//   - which queries are associated with an item (for Eq. 1's Jaccard), and
//   - which item pairs share at least one query (candidate generation, so
//     the entity graph never considers all O(V²) pairs).
package bipartite

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"shoal/internal/model"
)

// Graph is the bipartite click graph over a sliding day window.
type Graph struct {
	windowDays int32
	maxDay     int32
	// clicks[day] holds the events ingested for that day, keyed by day
	// modulo nothing (sparse map: day -> events) so eviction is O(events
	// of the evicted days).
	byDay map[int32][]model.ClickEvent

	// Aggregated state over the current window.
	queryItems map[model.QueryID]map[model.ItemID]int32
	itemQuery  map[model.ItemID]map[model.QueryID]int32
	dirty      bool

	// changed accumulates items whose query-set MEMBERSHIP changed since
	// the last TakeChangedItems drain: an (item, query) pair count crossed
	// zero in either direction, from ingestion or eviction. Count-only
	// changes (a pair going 3 -> 5 clicks) do not alter QuerySet and are
	// deliberately not tracked: the entity graph, the one consumer of this
	// set, reads membership only. (describe reads the raw counts, through
	// ItemClicks, and recomputes from the whole window on every build.)
	changed map[model.ItemID]struct{}

	// droppedStale counts clicks discarded because they arrived for a day
	// already evicted from the window (late-arriving data). Diagnostic
	// only: it never affects aggregate state.
	droppedStale int64
}

// New creates a click graph retaining the most recent windowDays days.
// windowDays <= 0 means unlimited retention.
func New(windowDays int) *Graph {
	return &Graph{
		windowDays: int32(windowDays),
		maxDay:     -1,
		byDay:      make(map[int32][]model.ClickEvent),
		queryItems: make(map[model.QueryID]map[model.ItemID]int32),
		itemQuery:  make(map[model.ItemID]map[model.QueryID]int32),
		changed:    make(map[model.ItemID]struct{}),
	}
}

// Add ingests one click event and evicts days that fall out of the window.
func (g *Graph) Add(ev model.ClickEvent) error {
	if ev.Count <= 0 {
		return fmt.Errorf("bipartite: non-positive click count %d", ev.Count)
	}
	if ev.Day < 0 {
		return fmt.Errorf("bipartite: negative day %d", ev.Day)
	}
	if g.windowDays > 0 && g.maxDay >= 0 && ev.Day <= g.maxDay-g.windowDays {
		// Click older than the window: late-arriving data for a day
		// already evicted. Dropping it is correct (replaying it would
		// resurrect an expired day) but operators need to see it happen.
		g.droppedStale++
		return nil
	}
	g.byDay[ev.Day] = append(g.byDay[ev.Day], ev)
	g.apply(ev, +1)
	if ev.Day > g.maxDay {
		g.maxDay = ev.Day
		g.evict()
	}
	return nil
}

// AddAll ingests a batch of events with a single eviction pass at the end,
// instead of re-running the evict scan on every per-event max-day bump.
// The batch is validated up front, so on error no event has been applied
// (stricter than the old per-event loop, which applied a prefix). Events
// older than the window implied by the batch's own newest day are dropped
// before application; the final aggregate state is identical to sequential
// Add calls (eviction removes whole days either way), though droppedStale
// may count transiently-applied-then-evicted events that a sequential
// replay would have silently aged out instead.
func (g *Graph) AddAll(evs []model.ClickEvent) error {
	batchMax := int32(-1)
	for i := range evs {
		ev := &evs[i]
		if ev.Count <= 0 {
			return fmt.Errorf("bipartite: non-positive click count %d", ev.Count)
		}
		if ev.Day < 0 {
			return fmt.Errorf("bipartite: negative day %d", ev.Day)
		}
		if ev.Day > batchMax {
			batchMax = ev.Day
		}
	}
	if len(evs) == 0 {
		return nil
	}
	effMax := g.maxDay
	if batchMax > effMax {
		effMax = batchMax
	}
	cutoff := int32(-1)
	if g.windowDays > 0 && effMax >= 0 {
		cutoff = effMax - g.windowDays
	}
	for _, ev := range evs {
		if g.windowDays > 0 && ev.Day <= cutoff {
			g.droppedStale++
			continue
		}
		g.byDay[ev.Day] = append(g.byDay[ev.Day], ev)
		g.apply(ev, +1)
	}
	if batchMax > g.maxDay {
		g.maxDay = batchMax
		g.evict()
	}
	return nil
}

func (g *Graph) apply(ev model.ClickEvent, sign int32) {
	qi := g.queryItems[ev.Query]
	if qi == nil {
		qi = make(map[model.ItemID]int32)
		g.queryItems[ev.Query] = qi
	}
	qi[ev.Item] += sign * ev.Count
	if qi[ev.Item] <= 0 {
		delete(qi, ev.Item)
		if len(qi) == 0 {
			delete(g.queryItems, ev.Query)
		}
	}
	iq := g.itemQuery[ev.Item]
	if iq == nil {
		iq = make(map[model.QueryID]int32)
		g.itemQuery[ev.Item] = iq
	}
	before := len(iq)
	iq[ev.Query] += sign * ev.Count
	if iq[ev.Query] <= 0 {
		delete(iq, ev.Query)
		if len(iq) == 0 {
			delete(g.itemQuery, ev.Item)
		}
	}
	if len(iq) != before {
		// The item's query set gained or lost a member: its downstream
		// similarity rows may change.
		g.changed[ev.Item] = struct{}{}
	}
}

// TakeChangedItems drains and returns the set of items whose query sets
// changed membership since the previous drain (or since New), sorted.
// Callers use it to scope incremental rebuilds; a freshly drained graph
// accumulates from empty again.
func (g *Graph) TakeChangedItems() []model.ItemID {
	if len(g.changed) == 0 {
		return nil
	}
	out := make([]model.ItemID, 0, len(g.changed))
	for it := range g.changed {
		out = append(out, it)
	}
	slices.Sort(out)
	g.changed = make(map[model.ItemID]struct{})
	return out
}

// WindowStats is a point-in-time summary of the sliding window.
type WindowStats struct {
	Queries      int   // queries with at least one in-window click
	Items        int   // items with at least one in-window click
	MaxDay       int32 // newest day seen, -1 if empty
	DroppedStale int64 // late clicks discarded for already-evicted days
}

// Stats returns the current window summary.
func (g *Graph) Stats() WindowStats {
	return WindowStats{
		Queries:      len(g.queryItems),
		Items:        len(g.itemQuery),
		MaxDay:       g.maxDay,
		DroppedStale: g.droppedStale,
	}
}

// evict drops whole days that fell out of the window.
func (g *Graph) evict() {
	if g.windowDays <= 0 {
		return
	}
	cutoff := g.maxDay - g.windowDays // days <= cutoff are expired
	for day, evs := range g.byDay {
		if day <= cutoff {
			for _, ev := range evs {
				g.apply(ev, -1)
			}
			delete(g.byDay, day)
		}
	}
}

// MaxDay returns the newest day seen, or -1 if empty.
func (g *Graph) MaxDay() int32 { return g.maxDay }

// Queries returns the number of queries with at least one in-window click.
func (g *Graph) Queries() int { return len(g.queryItems) }

// Items returns the number of items with at least one in-window click.
func (g *Graph) Items() int { return len(g.itemQuery) }

// QuerySet returns the ids of queries that clicked into item, sorted.
func (g *Graph) QuerySet(item model.ItemID) []model.QueryID {
	out := g.AppendQuerySet(nil, item)
	slices.Sort(out)
	return out
}

// AppendQuerySet appends the ids of queries that clicked into item to dst
// in unspecified order and returns the extended slice: QuerySet without
// the sort and the allocation, for callers that union several items' sets
// into one buffer and order that.
func (g *Graph) AppendQuerySet(dst []model.QueryID, item model.ItemID) []model.QueryID {
	for q := range g.itemQuery[item] {
		dst = append(dst, q)
	}
	return dst
}

// ItemClicks iterates the queries that clicked into item, each with the
// pair's in-window click mass, in unspecified order: QuerySet plus
// ClickCount without the sort, the allocation and the second lookup, for
// callers whose aggregation does not depend on the order.
func (g *Graph) ItemClicks(item model.ItemID) iter.Seq2[model.QueryID, int32] {
	return func(yield func(model.QueryID, int32) bool) {
		for q, n := range g.itemQuery[item] {
			if !yield(q, n) {
				return
			}
		}
	}
}

// ItemSet returns the ids of items clicked from query, sorted.
func (g *Graph) ItemSet(query model.QueryID) []model.ItemID {
	m := g.queryItems[query]
	out := make([]model.ItemID, 0, len(m))
	for it := range m {
		out = append(out, it)
	}
	slices.Sort(out)
	return out
}

// ClickCount returns the in-window click mass between query and item.
func (g *Graph) ClickCount(query model.QueryID, item model.ItemID) int32 {
	return g.queryItems[query][item]
}

// QueryDegree returns |items| clicked from the query.
func (g *Graph) QueryDegree(query model.QueryID) int { return len(g.queryItems[query]) }

// ItemDegree returns |queries| that clicked into the item.
func (g *Graph) ItemDegree(item model.ItemID) int { return len(g.itemQuery[item]) }

// Jaccard computes Eq. 1: |Qu ∩ Qv| / |Qu ∪ Qv| over the query sets of two
// items. Items with no queries yield 0.
func (g *Graph) Jaccard(u, v model.ItemID) float64 {
	qu, qv := g.itemQuery[u], g.itemQuery[v]
	if len(qu) == 0 || len(qv) == 0 {
		return 0
	}
	if len(qv) < len(qu) {
		qu, qv = qv, qu
	}
	inter := 0
	for q := range qu {
		if _, ok := qv[q]; ok {
			inter++
		}
	}
	union := len(qu) + len(qv) - inter
	return float64(inter) / float64(union)
}

// Pair is an unordered item pair with its query-set intersection size.
type Pair struct {
	U, V  model.ItemID // U < V
	Inter int32        // |Qu ∩ Qv|
}

// CoClickPairs enumerates all item pairs that share at least one query,
// with intersection counts — the candidate edges of the entity graph.
// Queries whose item fan-out exceeds maxFanout are skipped (head queries
// like "dress" would otherwise contribute O(fanout²) pairs while carrying
// little discriminative signal); maxFanout <= 0 disables the cap.
// The result is sorted by (U, V).
func (g *Graph) CoClickPairs(maxFanout int) []Pair {
	counts := make(map[[2]model.ItemID]int32)
	for _, items := range g.queryItems {
		if maxFanout > 0 && len(items) > maxFanout {
			continue
		}
		ids := make([]model.ItemID, 0, len(items))
		for it := range items {
			ids = append(ids, it)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				counts[[2]model.ItemID{ids[i], ids[j]}]++
			}
		}
	}
	out := make([]Pair, 0, len(counts))
	for k, c := range counts {
		out = append(out, Pair{U: k[0], V: k[1], Inter: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
