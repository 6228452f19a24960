package bipartite

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"shoal/internal/model"
)

func ev(q, it, day, n int) model.ClickEvent {
	return model.ClickEvent{Query: model.QueryID(q), Item: model.ItemID(it), Day: int32(day), Count: int32(n)}
}

func TestAddAndLookups(t *testing.T) {
	g := New(7)
	must := func(e model.ClickEvent) {
		t.Helper()
		if err := g.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	must(ev(0, 10, 0, 2))
	must(ev(0, 11, 0, 1))
	must(ev(1, 10, 1, 3))

	if g.Queries() != 2 || g.Items() != 2 {
		t.Fatalf("Queries=%d Items=%d, want 2,2", g.Queries(), g.Items())
	}
	if got := g.ClickCount(0, 10); got != 2 {
		t.Fatalf("ClickCount(0,10) = %d, want 2", got)
	}
	qs := g.QuerySet(10)
	if len(qs) != 2 || qs[0] != 0 || qs[1] != 1 {
		t.Fatalf("QuerySet(10) = %v, want [0 1]", qs)
	}
	is := g.ItemSet(0)
	if len(is) != 2 || is[0] != 10 || is[1] != 11 {
		t.Fatalf("ItemSet(0) = %v, want [10 11]", is)
	}
	if g.QueryDegree(0) != 2 || g.ItemDegree(10) != 2 {
		t.Fatalf("degrees wrong: qd=%d id=%d", g.QueryDegree(0), g.ItemDegree(10))
	}
	if g.MaxDay() != 1 {
		t.Fatalf("MaxDay = %d, want 1", g.MaxDay())
	}
}

func TestAddRejectsBadEvents(t *testing.T) {
	g := New(7)
	if err := g.Add(ev(0, 0, 0, 0)); err == nil {
		t.Fatal("Add(count=0) = nil error")
	}
	if err := g.Add(model.ClickEvent{Query: 0, Item: 0, Day: -1, Count: 1}); err == nil {
		t.Fatal("Add(day=-1) = nil error")
	}
}

func TestSlidingWindowEviction(t *testing.T) {
	g := New(7)
	if err := g.AddAll([]model.ClickEvent{ev(0, 1, 0, 1), ev(1, 2, 3, 1)}); err != nil {
		t.Fatal(err)
	}
	// Day 0 clicks must survive through day 7 (window covers days 1..7
	// exclusive of day<=0? day > maxDay-window: 0 > 7-7=0 is false) —
	// precisely: with window=7 and maxDay=7, days <= 0 are evicted.
	if err := g.Add(ev(2, 3, 7, 1)); err != nil {
		t.Fatal(err)
	}
	if g.ClickCount(0, 1) != 0 {
		t.Fatal("day-0 click not evicted at day 7 with 7-day window")
	}
	if g.ClickCount(1, 2) != 1 {
		t.Fatal("day-3 click wrongly evicted")
	}
	// Late-arriving stale click is ignored.
	if err := g.Add(ev(5, 9, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if g.ClickCount(5, 9) != 0 {
		t.Fatal("stale click was ingested")
	}
}

func TestUnlimitedWindow(t *testing.T) {
	g := New(0)
	if err := g.AddAll([]model.ClickEvent{ev(0, 1, 0, 1), ev(1, 2, 1000, 1)}); err != nil {
		t.Fatal(err)
	}
	if g.ClickCount(0, 1) != 1 {
		t.Fatal("unlimited window evicted an event")
	}
}

func TestEvictionRemovesEmptyEntries(t *testing.T) {
	g := New(1)
	if err := g.Add(ev(0, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(ev(1, 2, 5, 1)); err != nil {
		t.Fatal(err)
	}
	if g.Queries() != 1 || g.Items() != 1 {
		t.Fatalf("after eviction Queries=%d Items=%d, want 1,1", g.Queries(), g.Items())
	}
	if got := g.QuerySet(1); len(got) != 0 {
		t.Fatalf("QuerySet(evicted item) = %v, want empty", got)
	}
}

func TestJaccardHandComputed(t *testing.T) {
	g := New(0)
	// item 1: queries {0,1,2}; item 2: queries {1,2,3}; inter=2 union=4.
	evs := []model.ClickEvent{
		ev(0, 1, 0, 1), ev(1, 1, 0, 1), ev(2, 1, 0, 1),
		ev(1, 2, 0, 1), ev(2, 2, 0, 1), ev(3, 2, 0, 1),
	}
	if err := g.AddAll(evs); err != nil {
		t.Fatal(err)
	}
	if got := g.Jaccard(1, 2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Jaccard = %f, want 0.5", got)
	}
	if got := g.Jaccard(1, 99); got != 0 {
		t.Fatalf("Jaccard with unknown item = %f, want 0", got)
	}
}

// Properties of Jaccard: symmetric, in [0,1], self-similarity 1.
func TestJaccardProperties(t *testing.T) {
	g := New(0)
	f := func(edges []uint16) bool {
		g2 := New(0)
		for _, e := range edges {
			q := int(e >> 8)
			it := int(e & 0xff)
			if err := g2.Add(ev(q, it, 0, 1)); err != nil {
				return false
			}
		}
		for u := 0; u < 8; u++ {
			for v := 0; v < 8; v++ {
				juv := g2.Jaccard(model.ItemID(u), model.ItemID(v))
				jvu := g2.Jaccard(model.ItemID(v), model.ItemID(u))
				if juv != jvu || juv < 0 || juv > 1 {
					return false
				}
				if u == v && g2.ItemDegree(model.ItemID(u)) > 0 && juv != 1 {
					return false
				}
			}
		}
		return true
	}
	_ = g
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCoClickPairs(t *testing.T) {
	g := New(0)
	// query 0 clicks items {1,2,3}; query 1 clicks items {2,3}.
	evs := []model.ClickEvent{
		ev(0, 1, 0, 1), ev(0, 2, 0, 1), ev(0, 3, 0, 1),
		ev(1, 2, 0, 1), ev(1, 3, 0, 1),
	}
	if err := g.AddAll(evs); err != nil {
		t.Fatal(err)
	}
	pairs := g.CoClickPairs(0)
	want := map[[2]model.ItemID]int32{
		{1, 2}: 1, {1, 3}: 1, {2, 3}: 2,
	}
	if len(pairs) != len(want) {
		t.Fatalf("CoClickPairs returned %d pairs, want %d (%v)", len(pairs), len(want), pairs)
	}
	for _, p := range pairs {
		if p.U >= p.V {
			t.Fatalf("pair not canonical: %v", p)
		}
		if want[[2]model.ItemID{p.U, p.V}] != p.Inter {
			t.Fatalf("pair %v has inter=%d, want %d", p, p.Inter, want[[2]model.ItemID{p.U, p.V}])
		}
	}
	// Sorted by (U,V).
	for i := 1; i < len(pairs); i++ {
		a, b := pairs[i-1], pairs[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			t.Fatal("CoClickPairs not sorted")
		}
	}
}

func TestCoClickPairsFanoutCap(t *testing.T) {
	g := New(0)
	// Head query 0 clicks 5 items; tail query 1 clicks 2 of them.
	for it := 0; it < 5; it++ {
		if err := g.Add(ev(0, it, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddAll([]model.ClickEvent{ev(1, 0, 0, 1), ev(1, 1, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	pairs := g.CoClickPairs(3) // head query skipped
	if len(pairs) != 1 || pairs[0].U != 0 || pairs[0].V != 1 {
		t.Fatalf("CoClickPairs(cap=3) = %v, want only (0,1)", pairs)
	}
}

func TestCoClickIntersectionMatchesJaccardNumerator(t *testing.T) {
	g := New(0)
	evs := []model.ClickEvent{
		ev(0, 1, 0, 1), ev(1, 1, 0, 1), ev(2, 1, 0, 1),
		ev(1, 2, 0, 1), ev(2, 2, 0, 1), ev(3, 2, 0, 1),
	}
	if err := g.AddAll(evs); err != nil {
		t.Fatal(err)
	}
	pairs := g.CoClickPairs(0)
	for _, p := range pairs {
		union := g.ItemDegree(p.U) + g.ItemDegree(p.V) - int(p.Inter)
		want := float64(p.Inter) / float64(union)
		if got := g.Jaccard(p.U, p.V); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Jaccard(%d,%d)=%f, want %f from pair counts", p.U, p.V, got, want)
		}
	}
}

// TestAppendQuerySetMatchesQuerySet pins the unordered accessor to the
// sorted one: the same set for every item, appended after what dst
// already held, before and after a day falls out of the window.
func TestAppendQuerySetMatchesQuerySet(t *testing.T) {
	g := New(2)
	check := func(tag string) {
		t.Helper()
		for it := model.ItemID(0); it < 6; it++ {
			got := g.AppendQuerySet([]model.QueryID{99}, it)
			if got[0] != 99 {
				t.Fatalf("%s: item %d: AppendQuerySet overwrote dst: %v", tag, it, got)
			}
			got = got[1:]
			slices.Sort(got)
			if want := g.QuerySet(it); !slices.Equal(got, want) {
				t.Fatalf("%s: item %d: AppendQuerySet %v, QuerySet %v", tag, it, got, want)
			}
		}
	}
	for _, e := range []model.ClickEvent{ev(0, 1, 0, 1), ev(1, 1, 0, 2), ev(2, 1, 1, 1), ev(2, 2, 1, 1), ev(0, 3, 1, 4)} {
		if err := g.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	check("full window")
	if len(g.QuerySet(1)) != 3 {
		t.Fatalf("QuerySet(1) = %v, want three queries", g.QuerySet(1))
	}
	if err := g.Add(ev(3, 2, 2, 1)); err != nil { // day 0 leaves the window
		t.Fatal(err)
	}
	check("after eviction")
	if got := g.QuerySet(1); !slices.Equal(got, []model.QueryID{2}) {
		t.Fatalf("QuerySet(1) after eviction = %v, want [2]", got)
	}
}
