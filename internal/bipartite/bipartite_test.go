package bipartite

import (
	"math"
	"slices"
	"testing"

	"shoal/internal/model"
)

func ev(q, it, day, n int) model.ClickEvent {
	return model.ClickEvent{Query: model.QueryID(q), Item: model.ItemID(it), Day: int32(day), Count: int32(n)}
}

// clickCount returns the in-window click mass between query and item.
func clickCount(g *Graph, q, it int) int32 {
	qs, ns := g.Row(model.ItemID(it))
	if i, ok := slices.BinarySearch(qs, model.QueryID(q)); ok {
		return ns[i]
	}
	return 0
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

	if st := g.Stats(); st.Queries != 2 || st.Items != 2 {
		t.Fatalf("Queries=%d Items=%d, want 2,2", st.Queries, st.Items)
	}
	qs, ns := g.Row(10)
	if !slices.Equal(qs, []model.QueryID{0, 1}) || !slices.Equal(ns, []int32{2, 3}) {
		t.Fatalf("Row(10) = %v %v, want [0 1] [2 3]", qs, ns)
	}
	if qs, ns := g.Row(11); !slices.Equal(qs, []model.QueryID{0}) || !slices.Equal(ns, []int32{1}) {
		t.Fatalf("Row(11) = %v %v, want [0] [1]", qs, ns)
	}
	for _, it := range []model.ItemID{-1, 0, 9, 12, 1 << 20} {
		if qs, ns := g.Row(it); len(qs) != 0 || len(ns) != 0 {
			t.Fatalf("Row(%d) = %v %v, want empty", it, qs, ns)
		}
	}
	if got := g.Stats().MaxDay; got != 1 {
		t.Fatalf("MaxDay = %d, want 1", got)
	}
}

func TestAddRejectsBadEvents(t *testing.T) {
	g := New(7)
	for _, e := range []model.ClickEvent{
		ev(0, 0, 0, 0),
		{Query: 0, Item: 0, Day: -1, Count: 1},
		{Query: 0, Item: -1, Day: 0, Count: 1},
		{Query: -3, Item: 0, Day: 0, Count: 1},
	} {
		if err := g.Add(e); err == nil {
			t.Fatalf("Add(%+v) = nil error", e)
		}
	}
	if st := g.Stats(); st != (WindowStats{MaxDay: -1}) {
		t.Fatalf("rejected events changed the window: %+v", st)
	}
}

// TestAddAllRejectsOverflow: two valid days of 1<<30 clicks on one pair
// would take its in-window mass past MaxInt32. The batch that would is
// refused and leaves the window as it was — the pair neither wraps
// negative nor vanishes while both days are retained.
func TestAddAllRejectsOverflow(t *testing.T) {
	g := New(7)
	if err := g.AddAll([]model.ClickEvent{ev(0, 0, 0, 1<<30), ev(1, 0, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	g.TakeChangedItems()
	before := g.Stats()
	if err := g.AddAll([]model.ClickEvent{ev(2, 5, 1, 1), ev(0, 0, 1, 1<<30)}); err == nil {
		t.Fatal("AddAll past MaxInt32 = nil error")
	}
	if got := clickCount(g, 0, 0); got != 1<<30 {
		t.Fatalf("pair mass after the refused batch = %d, want %d", got, 1<<30)
	}
	if qs, _ := g.Row(5); len(qs) != 0 {
		t.Fatalf("refused batch left item 5 a row %v", qs)
	}
	if st := g.Stats(); st != before {
		t.Fatalf("refused batch changed Stats %+v -> %+v", before, st)
	}
	if got := g.TakeChangedItems(); got != nil {
		t.Fatalf("refused batch marked items %v", got)
	}
	// The window still slides: day 7 evicts day 0, and the pair keeps
	// only the day-1 clicks of the batch that fit.
	if err := g.AddAll([]model.ClickEvent{ev(0, 0, 1, math.MaxInt32-(1<<30))}); err != nil {
		t.Fatalf("a batch reaching exactly MaxInt32: %v", err)
	}
	if err := g.Add(ev(3, 3, 7, 1)); err != nil {
		t.Fatal(err)
	}
	if got := clickCount(g, 0, 0); got != math.MaxInt32-(1<<30) {
		t.Fatalf("after evicting day 0 the pair holds %d, want %d", got, math.MaxInt32-(1<<30))
	}
}

func TestSlidingWindowEviction(t *testing.T) {
	g := New(7)
	if err := g.AddAll([]model.ClickEvent{ev(0, 1, 0, 1), ev(1, 2, 3, 1)}); err != nil {
		t.Fatal(err)
	}
	// With window=7 and maxDay=7, days <= 0 are evicted.
	if err := g.Add(ev(2, 3, 7, 1)); err != nil {
		t.Fatal(err)
	}
	if clickCount(g, 0, 1) != 0 {
		t.Fatal("day-0 click not evicted at day 7 with 7-day window")
	}
	if clickCount(g, 1, 2) != 1 {
		t.Fatal("day-3 click wrongly evicted")
	}
	// Late-arriving stale click is ignored.
	if err := g.Add(ev(5, 9, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if clickCount(g, 5, 9) != 0 {
		t.Fatal("stale click was ingested")
	}
}

func TestUnlimitedWindow(t *testing.T) {
	g := New(0)
	if err := g.AddAll([]model.ClickEvent{ev(0, 1, 0, 1), ev(1, 2, 1000, 1)}); err != nil {
		t.Fatal(err)
	}
	if clickCount(g, 0, 1) != 1 {
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
	if st := g.Stats(); st.Queries != 1 || st.Items != 1 {
		t.Fatalf("after eviction Queries=%d Items=%d, want 1,1", st.Queries, st.Items)
	}
	if got, _ := g.Row(1); len(got) != 0 {
		t.Fatalf("Row(evicted item) = %v, want empty", got)
	}
}

// TestRowSortedAndCapped: rows come out ascending by query, before and
// after a day falls out of the window, and appending to one returned row
// cannot overwrite the next item's.
func TestRowSortedAndCapped(t *testing.T) {
	g := New(2)
	for _, e := range []model.ClickEvent{ev(2, 1, 0, 1), ev(0, 1, 0, 2), ev(1, 1, 1, 1), ev(2, 2, 1, 1), ev(0, 3, 1, 4)} {
		if err := g.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if qs, ns := g.Row(1); !slices.Equal(qs, []model.QueryID{0, 1, 2}) || !slices.Equal(ns, []int32{2, 1, 1}) {
		t.Fatalf("Row(1) = %v %v, want [0 1 2] [2 1 1]", qs, ns)
	}
	qs, ns := g.Row(1)
	_ = append(qs, 99)
	_ = append(ns, 99)
	if q2, n2 := g.Row(2); !slices.Equal(q2, []model.QueryID{2}) || !slices.Equal(n2, []int32{1}) {
		t.Fatalf("appending to Row(1) reached Row(2): %v %v", q2, n2)
	}
	if err := g.Add(ev(3, 2, 2, 1)); err != nil { // day 0 leaves the window
		t.Fatal(err)
	}
	if qs, _ := g.Row(1); !slices.Equal(qs, []model.QueryID{1}) {
		t.Fatalf("Row(1) after eviction = %v, want [1]", qs)
	}
	if qs, _ := g.Row(2); !slices.Equal(qs, []model.QueryID{2, 3}) {
		t.Fatalf("Row(2) after eviction = %v, want [2 3]", qs)
	}
}
