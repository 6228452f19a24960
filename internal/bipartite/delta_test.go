package bipartite

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"shoal/internal/model"
)

func randEvents(rng *rand.Rand, n int) []model.ClickEvent {
	evs := make([]model.ClickEvent, 0, n)
	day := int32(0)
	for i := 0; i < n; i++ {
		if rng.IntN(3) == 0 {
			day += int32(rng.IntN(3))
		}
		d := day - int32(rng.IntN(9)) // sometimes far enough back to be stale
		if d < 0 {
			d = 0
		}
		evs = append(evs, model.ClickEvent{
			Query: model.QueryID(rng.IntN(9)),
			Item:  model.ItemID(rng.IntN(9)),
			Day:   d,
			Count: int32(rng.IntN(3) + 1),
		})
	}
	return evs
}

// Property: the batched AddAll leaves the graph in exactly the state a
// sequential Add replay would — same rows and counts, same Queries, Items
// and max day — for any interleaving of in-order, out-of-order and stale
// events.
func TestAddAllMatchesSequential(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		evs := randEvents(rng, int(n)%150+1)

		seq := New(7)
		for _, ev := range evs {
			if err := seq.Add(ev); err != nil {
				return false
			}
		}
		bat := New(7)
		if err := bat.AddAll(evs); err != nil {
			return false
		}
		// DroppedStale may differ: the batch also counts events a
		// sequential replay accepts and later evicts.
		bs, ss := bat.Stats(), seq.Stats()
		if bs.MaxDay != ss.MaxDay || bs.Queries != ss.Queries || bs.Items != ss.Items {
			return false
		}
		for it := model.ItemID(0); it < 9; it++ {
			bq, bn := bat.Row(it)
			sq, sn := seq.Row(it)
			if !slices.Equal(bq, sq) || !slices.Equal(bn, sn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any ingestion sequence, the drained changed-item set is
// exactly the set of items whose sorted QuerySet differs from a snapshot
// taken at the previous drain.
func TestChangedItemsTracksQuerySetMembership(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		g := New(5)
		// Warm phase, then snapshot.
		if err := g.AddAll(randEvents(rng, 60)); err != nil {
			return false
		}
		g.TakeChangedItems()
		before := make(map[model.ItemID][]model.QueryID)
		for it := model.ItemID(0); it < 9; it++ {
			before[it], _ = g.Row(it)
			before[it] = slices.Clone(before[it])
		}
		// Perturb phase.
		if err := g.AddAll(randEvents(rng, 60)); err != nil {
			return false
		}
		changed := make(map[model.ItemID]bool)
		for _, it := range g.TakeChangedItems() {
			changed[it] = true
		}
		for it := model.ItemID(0); it < 9; it++ {
			if qs, _ := g.Row(it); !slices.Equal(before[it], qs) && !changed[it] {
				return false // a real membership change was missed
			}
		}
		// Second drain must be empty.
		return g.TakeChangedItems() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChangedItemsCountOnlyChangeNotTracked(t *testing.T) {
	g := New(7)
	ev := model.ClickEvent{Query: 1, Item: 2, Day: 0, Count: 1}
	if err := g.Add(ev); err != nil {
		t.Fatal(err)
	}
	if got := g.TakeChangedItems(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("initial add should mark item 2, got %v", got)
	}
	// Same pair again: count 1 -> 2, membership unchanged.
	if err := g.Add(ev); err != nil {
		t.Fatal(err)
	}
	if got := g.TakeChangedItems(); got != nil {
		t.Fatalf("count-only change must not mark items, got %v", got)
	}
}

func TestChangedItemsMarksEvictions(t *testing.T) {
	g := New(3)
	if err := g.Add(model.ClickEvent{Query: 1, Item: 5, Day: 0, Count: 1}); err != nil {
		t.Fatal(err)
	}
	g.TakeChangedItems()
	// Day 10 evicts day 0 entirely: item 5 loses query 1.
	if err := g.Add(model.ClickEvent{Query: 2, Item: 6, Day: 10, Count: 1}); err != nil {
		t.Fatal(err)
	}
	changed := g.TakeChangedItems()
	want := []model.ItemID{5, 6}
	if !reflect.DeepEqual(changed, want) {
		t.Fatalf("eviction must mark item 5 alongside new item 6: got %v want %v", changed, want)
	}
}

func TestDroppedStaleCounting(t *testing.T) {
	g := New(3)
	if err := g.Add(model.ClickEvent{Query: 1, Item: 1, Day: 10, Count: 1}); err != nil {
		t.Fatal(err)
	}
	// Day 7 is exactly at the cutoff (10 - 3): dropped.
	if err := g.Add(model.ClickEvent{Query: 1, Item: 1, Day: 7, Count: 1}); err != nil {
		t.Fatal(err)
	}
	// Day 8 is in-window: kept.
	if err := g.Add(model.ClickEvent{Query: 2, Item: 2, Day: 8, Count: 1}); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.DroppedStale != 1 {
		t.Fatalf("DroppedStale = %d, want 1", st.DroppedStale)
	}
	if st.Queries != 2 || st.Items != 2 || st.MaxDay != 10 {
		t.Fatalf("unexpected stats %+v", st)
	}

	// Batch path counts stale drops the same way.
	b := New(3)
	if err := b.AddAll([]model.ClickEvent{
		{Query: 1, Item: 1, Day: 10, Count: 1},
		{Query: 1, Item: 1, Day: 7, Count: 1},
		{Query: 2, Item: 2, Day: 8, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().DroppedStale; got != 1 {
		t.Fatalf("batch DroppedStale = %d, want 1", got)
	}
}

func TestAddAllRejectsInvalidWithoutMutating(t *testing.T) {
	g := New(7)
	err := g.AddAll([]model.ClickEvent{
		{Query: 1, Item: 1, Day: 0, Count: 1},
		{Query: 1, Item: 2, Day: 0, Count: 0}, // invalid
	})
	if err == nil {
		t.Fatal("want error for non-positive count")
	}
	if st := g.Stats(); st.Queries != 0 || st.Items != 0 || st.MaxDay != -1 {
		t.Fatalf("failed batch must not mutate the graph: %+v", g.Stats())
	}
}

// benchDay synthesizes one day's worth of click events.
func benchDay(day int32, events int) []model.ClickEvent {
	rng := rand.New(rand.NewPCG(uint64(day)+1, 5))
	evs := make([]model.ClickEvent, events)
	for i := range evs {
		evs[i] = model.ClickEvent{
			Query: model.QueryID(rng.IntN(400)),
			Item:  model.ItemID(rng.IntN(600)),
			Day:   day,
			Count: int32(rng.IntN(3) + 1),
		}
	}
	return evs
}

// BenchmarkIngestDayBatch streams 30 days through a seven-day window, one
// AddAll (one merge) per day.
func BenchmarkIngestDayBatch(b *testing.B) {
	days := make([][]model.ClickEvent, 30)
	for d := range days {
		days[d] = benchDay(int32(d), 2000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(7)
		for _, evs := range days {
			if err := g.AddAll(evs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
