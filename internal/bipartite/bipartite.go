// Package bipartite implements the query-item bipartite click graph of
// paper Fig. 2. It ingests click events, retains a sliding window of the
// last W days (the production system uses seven), and answers the one
// question SHOAL asks of it: which queries clicked into an item, and how
// often — Eq. 1's query sets for the entity graph and the click mass
// behind describe's tf(q, I_t).
//
// The window is one item-major CSR: item i's row holds its queries in
// ascending order, each with the pair's in-window click mass. Every
// ingest call rebuilds the rows by one linear merge — old rows plus the
// batch's events minus the runs of the days it evicts — into a spare set
// of arrays that it then swaps in, so a steady-state slide allocates no
// window arrays. Item and query ids index dense arrays: the window's
// memory grows with the largest id seen, not only with the clicks.
package bipartite

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"shoal/internal/model"
)

// Graph is the bipartite click graph over a sliding day window.
type Graph struct {
	windowDays int32
	maxDay     int32

	// The window: item i's queries are rowQ[off[i]:off[i+1]], ascending,
	// with each pair's in-window click mass in rowN beside them. Items at
	// or past len(off)-1 have empty rows. A merge writes the next window
	// into the spare arrays and swaps the two sets.
	off, spareOff  []int32
	rowQ, spareQ   []model.QueryID
	rowN, spareN   []int32
	qdeg           []int32 // items per query in the window
	queries, items int     // queries with qdeg > 0, items with a non-empty row

	// days holds the retained days ascending by day, each as the run the
	// merge subtracts when the day leaves the window. An unlimited window
	// never evicts, so it keeps none. free holds evicted days' buffers for
	// the days that replace them.
	days []dayRun
	free [][]pairCount

	// changed marks the items whose query-set MEMBERSHIP changed since the
	// last TakeChangedItems drain: an (item, query) pair appeared in or
	// vanished from the window, by ingestion or eviction. Count-only
	// changes (a pair going 3 -> 5 clicks) leave the row's queries as they
	// were and are deliberately not tracked: the entity graph, the one
	// consumer of this set, reads membership only. nchanged counts the
	// marks.
	changed  []bool
	nchanged int

	// droppedStale counts clicks discarded because they arrived for a day
	// already evicted from the window (late-arriving data). Diagnostic
	// only: it never affects aggregate state.
	droppedStale int64

	// One ingest call's scratch, kept for the next call: the accepted
	// events grouped by item (sorted, bucket), the batch's day runs and the
	// merge's membership changes.
	sorted []model.ClickEvent
	bucket []int32
	batch  []dayRun
	memb   []membChange
}

// pairCount is one (item, query) pair's click mass on one day.
type pairCount struct {
	item  model.ItemID
	query model.QueryID
	n     int32
}

// dayRun is one day's clicks aggregated per pair, sorted by (item, query).
type dayRun struct {
	day   int32
	pairs []pairCount
}

// membChange is a pair that appeared in (gained) or vanished from the
// window during a merge, applied to the degree and change marks only once
// the merge has succeeded.
type membChange struct {
	item   model.ItemID
	query  model.QueryID
	gained bool
}

// New creates a click graph retaining the most recent windowDays days.
// windowDays <= 0 means unlimited retention.
func New(windowDays int) *Graph {
	return &Graph{windowDays: int32(windowDays), maxDay: -1, off: []int32{0}}
}

// Add ingests one click event: AddAll of a one-event batch. Every call
// rebuilds the window's rows, so streams go through AddAll a day at a time.
func (g *Graph) Add(ev model.ClickEvent) error {
	return g.AddAll([]model.ClickEvent{ev})
}

// AddAll ingests a batch of events and evicts the days that fall out of
// the window behind the batch's newest day, in one merge. The batch is
// validated up front, and on any error — a bad event, or a pair whose
// in-window click mass would pass math.MaxInt32 — the window is left
// exactly as it was. Events older than the window implied by the batch's
// own newest day are dropped and counted (WindowStats.DroppedStale); the
// final state is the one sequential Add calls reach, though the count may
// include events a sequential replay would have accepted and evicted.
func (g *Graph) AddAll(evs []model.ClickEvent) error {
	batchMax, maxItem, maxQuery := int32(-1), model.ItemID(-1), model.QueryID(-1)
	for i := range evs {
		ev := &evs[i]
		switch {
		case ev.Count <= 0:
			return fmt.Errorf("bipartite: non-positive click count %d", ev.Count)
		case ev.Day < 0:
			return fmt.Errorf("bipartite: negative day %d", ev.Day)
		case ev.Item < 0:
			return fmt.Errorf("bipartite: negative item id %d", ev.Item)
		case ev.Query < 0:
			return fmt.Errorf("bipartite: negative query id %d", ev.Query)
		}
		batchMax = max(batchMax, ev.Day)
		maxItem = max(maxItem, ev.Item)
		maxQuery = max(maxQuery, ev.Query)
	}
	if len(evs) == 0 {
		return nil
	}
	newMax := max(g.maxDay, batchMax)
	cutoff := int32(math.MinInt32) // days <= cutoff are out of the window
	if g.windowDays > 0 {
		cutoff = newMax - g.windowDays
	}
	nItems := max(len(g.off)-1, int(maxItem)+1)
	stale := g.sortAccepted(evs, cutoff, nItems)
	nEvict := 0
	for nEvict < len(g.days) && g.days[nEvict].day <= cutoff {
		nEvict++
	}
	evicted := g.evictedRun(nEvict)
	err := g.merge(nItems, evicted)
	if nEvict > 1 {
		g.free = append(g.free, evicted[:0]) // the sum evictedRun built
	}
	if err != nil {
		// The merge wrote only scratch: dropping the batch's runs is the
		// whole rollback.
		for _, b := range g.batch {
			g.free = append(g.free, b.pairs[:0])
		}
		g.batch = g.batch[:0]
		return err
	}
	g.commit(newMax, nEvict, int(maxQuery)+1, stale)
	return nil
}

// sortAccepted leaves the in-window events of evs in g.sorted, grouped by
// item through a counting sort (item i's events are
// sorted[bucket[i]:bucket[i+1]]); the merge sorts each group by query as
// it reaches it. It also opens one batch run per distinct accepted day,
// and returns the number of stale events.
func (g *Graph) sortAccepted(evs []model.ClickEvent, cutoff int32, nItems int) (stale int64) {
	g.bucket = resize(g.bucket, nItems+2)
	clear(g.bucket)
	accepted := 0
	lastDay := int32(-1)
	for i := range evs {
		ev := &evs[i]
		if ev.Day <= cutoff {
			stale++
			continue
		}
		accepted++
		g.bucket[ev.Item+2]++
		if g.windowDays > 0 && ev.Day != lastDay {
			lastDay = ev.Day
			j, found := slices.BinarySearchFunc(g.batch, ev.Day, byDay)
			if !found {
				g.batch = slices.Insert(g.batch, j, dayRun{day: ev.Day, pairs: g.takeFree()})
			}
		}
	}
	for i := 2; i < len(g.bucket); i++ {
		g.bucket[i] += g.bucket[i-1]
	}
	g.sorted = resize(g.sorted, accepted)
	for i := range evs {
		if ev := evs[i]; ev.Day > cutoff {
			g.sorted[g.bucket[ev.Item+1]] = ev
			g.bucket[ev.Item+1]++
		}
	}
	return stale
}

// evictedRun returns the pairs of the first n retained days as one run:
// the day's own run for one day, their sum, in a buffer of its own, for
// several.
func (g *Graph) evictedRun(n int) []pairCount {
	if n == 0 {
		return nil
	}
	run := g.days[0].pairs
	for j, d := range g.days[1:n] {
		sum := mergeRuns(g.takeFree(), run, d.pairs)
		if j > 0 {
			g.free = append(g.free, run[:0]) // the previous sum
		}
		run = sum
	}
	return run
}

// merge writes old window + accepted events − evicted pairs into the
// spare arrays, item by item. Items with no event and no evicted pair
// keep their rows, copied a span of such items at a time. Along the way
// it appends every accepted pair to its day's batch run and every pair
// that appears or vanishes to g.memb. It fails, with the window and its
// marks untouched, when a pair's in-window mass would pass MaxInt32.
func (g *Graph) merge(nItems int, evicted []pairCount) error {
	oldN := len(g.off) - 1
	oldEnd := func(i int) int32 { return g.off[min(i, oldN)] }
	need := len(g.rowQ) + len(g.sorted)
	off := resize(g.spareOff, nItems+1)
	rowQ := resize(g.spareQ, need)
	rowN := resize(g.spareN, need)
	g.memb = g.memb[:0]
	items := 0
	var w int32
	// copySpan copies the rows of the untouched items [from, to).
	copySpan := func(from, to int) {
		src := oldEnd(from)
		copy(rowQ[w:], g.rowQ[src:oldEnd(to)])
		copy(rowN[w:], g.rowN[src:oldEnd(to)])
		for i := from; i < to; i++ {
			off[i+1] = oldEnd(i+1) - src + w
			if off[i+1] > off[i] {
				items++
			}
		}
		w = off[to]
	}
	off[0] = 0
	from, e := 0, 0
	for i := 0; i < nItems; i++ {
		it := model.ItemID(i)
		adds := g.sorted[g.bucket[i]:g.bucket[i+1]]
		if len(adds) == 0 && (e == len(evicted) || evicted[e].item != it) {
			continue
		}
		copySpan(from, i)
		from = i + 1
		// An item brings a handful of events a day, where the library sort
		// is an insertion sort.
		slices.SortFunc(adds, func(a, b model.ClickEvent) int { return cmp.Compare(a.Query, b.Query) })
		o, oe, k := oldEnd(i), oldEnd(i+1), 0
		for o < oe || k < len(adds) || (e < len(evicted) && evicted[e].item == it) {
			q := model.QueryID(math.MaxInt32)
			if o < oe {
				q = g.rowQ[o]
			}
			if k < len(adds) {
				q = min(q, adds[k].Query)
			}
			if e < len(evicted) && evicted[e].item == it {
				q = min(q, evicted[e].query)
			}
			var old int32
			if o < oe && g.rowQ[o] == q {
				old = g.rowN[o]
				o++
			}
			n := int64(old)
			for ; k < len(adds) && adds[k].Query == q; k++ {
				n += int64(adds[k].Count)
				g.record(&adds[k])
			}
			if n > math.MaxInt32 {
				return fmt.Errorf("bipartite: item %d, query %d: in-window click mass %d overflows int32", it, q, n)
			}
			if e < len(evicted) && evicted[e].item == it && evicted[e].query == q {
				n -= int64(evicted[e].n)
				e++
			}
			if n > 0 {
				rowQ[w], rowN[w] = q, int32(n)
				w++
			}
			if (old > 0) != (n > 0) {
				g.memb = append(g.memb, membChange{item: it, query: q, gained: n > 0})
			}
		}
		off[i+1] = w
		if w > off[i] {
			items++
		}
	}
	copySpan(from, nItems)
	g.spareOff, g.spareQ, g.spareN = g.off, g.rowQ, g.rowN
	g.off, g.rowQ, g.rowN = off, rowQ[:w], rowN[:w]
	g.items = items
	return nil
}

// record adds an accepted event to its day's batch run. Runs receive
// pairs in (item, query) order, so an event for the pair the run ends
// with adds to it.
func (g *Graph) record(ev *model.ClickEvent) {
	if g.windowDays <= 0 {
		return
	}
	j, _ := slices.BinarySearchFunc(g.batch, ev.Day, byDay)
	r := &g.batch[j]
	if last := len(r.pairs) - 1; last >= 0 && r.pairs[last].item == ev.Item && r.pairs[last].query == ev.Query {
		r.pairs[last].n += ev.Count
		return
	}
	r.pairs = append(r.pairs, pairCount{item: ev.Item, query: ev.Query, n: ev.Count})
}

// commit applies a successful merge's bookkeeping: membership marks and
// query degrees, the stale count, the new max day, the evicted days'
// buffers to the free list and the batch's runs into the retained days.
func (g *Graph) commit(newMax int32, nEvict, nQueries int, stale int64) {
	if len(g.changed) < len(g.off)-1 {
		g.changed = append(g.changed, make([]bool, len(g.off)-1-len(g.changed))...)
	}
	if len(g.qdeg) < nQueries {
		g.qdeg = append(g.qdeg, make([]int32, nQueries-len(g.qdeg))...)
	}
	for _, m := range g.memb {
		if !g.changed[m.item] {
			g.changed[m.item] = true
			g.nchanged++
		}
		if m.gained {
			if g.qdeg[m.query]++; g.qdeg[m.query] == 1 {
				g.queries++
			}
		} else if g.qdeg[m.query]--; g.qdeg[m.query] == 0 {
			g.queries--
		}
	}
	g.droppedStale += stale
	g.maxDay = newMax

	for _, d := range g.days[:nEvict] {
		g.free = append(g.free, d.pairs[:0])
	}
	g.days = slices.Delete(g.days, 0, nEvict)
	for _, b := range g.batch {
		j, found := slices.BinarySearchFunc(g.days, b.day, byDay)
		if !found {
			g.days = slices.Insert(g.days, j, b)
			continue
		}
		// Late clicks for a retained day join its run.
		old := g.days[j].pairs
		g.days[j].pairs = mergeRuns(g.takeFree(), old, b.pairs)
		g.free = append(g.free, old[:0], b.pairs[:0])
	}
	g.batch = g.batch[:0]
}

// takeFree returns an evicted day's buffer, emptied, or nil.
func (g *Graph) takeFree() []pairCount {
	if len(g.free) == 0 {
		return nil
	}
	buf := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	return buf
}

// mergeRuns appends to dst the pairs of two runs sorted by (item,
// query), summing a pair present in both, and returns dst.
func mergeRuns(dst, a, b []pairCount) []pairCount {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpPair(a[i], b[j]); {
		case c < 0:
			dst = append(dst, a[i])
			i++
		case c > 0:
			dst = append(dst, b[j])
			j++
		default:
			p := a[i]
			p.n += b[j].n
			dst = append(dst, p)
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

func cmpPair(a, b pairCount) int {
	if c := cmp.Compare(a.item, b.item); c != 0 {
		return c
	}
	return cmp.Compare(a.query, b.query)
}

func byDay(r dayRun, day int32) int { return cmp.Compare(r.day, day) }

// resize returns s with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// TakeChangedItems drains and returns the set of items whose query sets
// changed membership since the previous drain (or since New), sorted.
// Callers use it to scope incremental rebuilds; a freshly drained graph
// accumulates from empty again.
func (g *Graph) TakeChangedItems() []model.ItemID {
	if g.nchanged == 0 {
		return nil
	}
	out := make([]model.ItemID, 0, g.nchanged)
	for i, c := range g.changed {
		if c {
			out = append(out, model.ItemID(i))
			g.changed[i] = false
		}
	}
	g.nchanged = 0
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
		Queries:      g.queries,
		Items:        g.items,
		MaxDay:       g.maxDay,
		DroppedStale: g.droppedStale,
	}
}

// Row returns the queries that clicked into item, ascending, and beside
// each the pair's in-window click mass. The slices are views of the
// window, valid until the next Add or AddAll: read them, do not keep or
// modify them. An item without in-window clicks has empty ones.
func (g *Graph) Row(item model.ItemID) (queries []model.QueryID, counts []int32) {
	if item < 0 || int(item) >= len(g.off)-1 {
		return nil, nil
	}
	a, b := g.off[item], g.off[item+1]
	return g.rowQ[a:b:b], g.rowN[a:b:b]
}
