package bipartite

import (
	"fmt"
	"slices"

	"shoal/internal/model"
)

// mapWindow is the map-backed click window the CSR replaced, kept as the
// oracle it is checked against: raw events per day, both directions of
// the bipartite index as nested maps updated per event on entry and on
// eviction, and a changed-item set marked whenever an item's query set
// gains or loses a member. Counts in the tests that use it stay far below
// the int32 range, where the two must agree exactly.
type mapWindow struct {
	windowDays   int32
	maxDay       int32
	byDay        map[int32][]model.ClickEvent
	queryItems   map[model.QueryID]map[model.ItemID]int32
	itemQuery    map[model.ItemID]map[model.QueryID]int32
	changed      map[model.ItemID]struct{}
	droppedStale int64
}

func newMapWindow(windowDays int) *mapWindow {
	return &mapWindow{
		windowDays: int32(windowDays),
		maxDay:     -1,
		byDay:      make(map[int32][]model.ClickEvent),
		queryItems: make(map[model.QueryID]map[model.ItemID]int32),
		itemQuery:  make(map[model.ItemID]map[model.QueryID]int32),
		changed:    make(map[model.ItemID]struct{}),
	}
}

func (g *mapWindow) Add(ev model.ClickEvent) error {
	if ev.Count <= 0 || ev.Day < 0 || ev.Item < 0 || ev.Query < 0 {
		return fmt.Errorf("oracle: bad event %+v", ev)
	}
	if g.windowDays > 0 && g.maxDay >= 0 && ev.Day <= g.maxDay-g.windowDays {
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

func (g *mapWindow) AddAll(evs []model.ClickEvent) error {
	batchMax := int32(-1)
	for _, ev := range evs {
		if ev.Count <= 0 || ev.Day < 0 || ev.Item < 0 || ev.Query < 0 {
			return fmt.Errorf("oracle: bad event %+v", ev)
		}
		batchMax = max(batchMax, ev.Day)
	}
	if len(evs) == 0 {
		return nil
	}
	effMax := max(g.maxDay, batchMax)
	cutoff := effMax - g.windowDays
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

func (g *mapWindow) apply(ev model.ClickEvent, sign int32) {
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
		g.changed[ev.Item] = struct{}{}
	}
}

func (g *mapWindow) evict() {
	if g.windowDays <= 0 {
		return
	}
	cutoff := g.maxDay - g.windowDays
	for day, evs := range g.byDay {
		if day <= cutoff {
			for _, ev := range evs {
				g.apply(ev, -1)
			}
			delete(g.byDay, day)
		}
	}
}

func (g *mapWindow) TakeChangedItems() []model.ItemID {
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

func (g *mapWindow) Stats() WindowStats {
	return WindowStats{
		Queries:      len(g.queryItems),
		Items:        len(g.itemQuery),
		MaxDay:       g.maxDay,
		DroppedStale: g.droppedStale,
	}
}

// Row is the oracle's row: item's queries ascending with their counts.
func (g *mapWindow) Row(item model.ItemID) ([]model.QueryID, []int32) {
	var qs []model.QueryID
	for q := range g.itemQuery[item] {
		qs = append(qs, q)
	}
	slices.Sort(qs)
	ns := make([]int32, len(qs))
	for i, q := range qs {
		ns[i] = g.itemQuery[item][q]
	}
	return qs, ns
}

// sameWindow reports the first difference between the CSR window and the
// oracle over items [0, items): a row, a count or a Stats field.
func sameWindow(g *Graph, o *mapWindow, items int) error {
	if gs, os := g.Stats(), o.Stats(); gs != os {
		return fmt.Errorf("Stats %+v, oracle %+v", gs, os)
	}
	for it := model.ItemID(0); int(it) < items; it++ {
		gq, gn := g.Row(it)
		oq, on := o.Row(it)
		if len(gq) != len(gn) || !slices.Equal(gq, oq) || !slices.Equal(gn, on) {
			return fmt.Errorf("item %d: row %v %v, oracle %v %v", it, gq, gn, oq, on)
		}
	}
	return nil
}
