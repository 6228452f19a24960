package bipartite

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"shoal/internal/model"
)

// rowMass sums the click mass over every row.
func rowMass(g *Graph, items int) int64 {
	var mass int64
	for it := model.ItemID(0); int(it) < items; it++ {
		_, ns := g.Row(it)
		for _, n := range ns {
			mass += int64(n)
		}
	}
	return mass
}

// Property: after any interleaving of in-order and out-of-order events,
// the rows hold exactly the mass of the events that were accepted and whose
// day is still in the window — eviction never double-removes or leaks.
func TestWindowMassConservation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		g := New(7)
		events := int(n)%120 + 1
		day := int32(0)
		var accepted []model.ClickEvent
		for i := 0; i < events; i++ {
			// Days wander forward with occasional jitter backwards.
			if rng.IntN(3) == 0 {
				day += int32(rng.IntN(3))
			}
			d := max(day-int32(rng.IntN(4)), 0) // sometimes late-arriving
			ev := model.ClickEvent{
				Query: model.QueryID(rng.IntN(9)),
				Item:  model.ItemID(rng.IntN(9)),
				Day:   d,
				Count: int32(rng.IntN(3) + 1),
			}
			maxDay := g.Stats().MaxDay
			stale := maxDay >= 0 && d <= maxDay-7
			if err := g.Add(ev); err != nil {
				return false
			}
			if !stale {
				accepted = append(accepted, ev)
			}
		}
		var want int64
		for _, ev := range accepted {
			if ev.Day > g.Stats().MaxDay-7 {
				want += int64(ev.Count)
			}
		}
		return rowMass(g, 9) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the per-query degrees behind Queries agree with the rows:
// Queries counts the distinct queries over all rows, Items the non-empty
// rows.
func TestIndexSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		g := New(5)
		for i := 0; i < 80; i++ {
			ev := model.ClickEvent{
				Query: model.QueryID(rng.IntN(6)),
				Item:  model.ItemID(rng.IntN(6)),
				Day:   int32(rng.IntN(12)),
				Count: 1,
			}
			if err := g.Add(ev); err != nil {
				return false
			}
			seen := map[model.QueryID]bool{}
			items := 0
			for it := model.ItemID(0); it < 6; it++ {
				qs, _ := g.Row(it)
				if len(qs) > 0 {
					items++
				}
				for _, q := range qs {
					seen[q] = true
				}
			}
			if st := g.Stats(); st.Queries != len(seen) || st.Items != items {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// oracleStep drives the CSR window and the map oracle through the same
// step and compares every row, count, Stats field and drain. op picks the
// step: a batch through AddAll, a batch replayed through Add one event at
// a time, or a drain.
func oracleStep(t *testing.T, g *Graph, o *mapWindow, items int, op int, evs []model.ClickEvent) {
	t.Helper()
	switch op {
	case 0:
		gerr, oerr := g.AddAll(evs), o.AddAll(evs)
		if (gerr == nil) != (oerr == nil) {
			t.Fatalf("AddAll(%v): error %v, oracle %v", evs, gerr, oerr)
		}
	case 1:
		for _, e := range evs {
			gerr, oerr := g.Add(e), o.Add(e)
			if (gerr == nil) != (oerr == nil) {
				t.Fatalf("Add(%+v): error %v, oracle %v", e, gerr, oerr)
			}
		}
	default:
		if got, want := g.TakeChangedItems(), o.TakeChangedItems(); !slices.Equal(got, want) {
			t.Fatalf("TakeChangedItems %v, oracle %v", got, want)
		}
	}
	if err := sameWindow(g, o, items); err != nil {
		t.Fatal(err)
	}
}

// randBatch draws a batch around the current max day: in-window,
// out-of-order, stale and multi-day events, sometimes none at all.
func randBatch(rng *rand.Rand, maxDay int32, items, queries int) []model.ClickEvent {
	n := rng.IntN(12)
	if rng.IntN(8) == 0 {
		n = 0
	}
	next := maxDay + int32(rng.IntN(4)) // 0-3 days ahead: gaps evict several days
	evs := make([]model.ClickEvent, n)
	for i := range evs {
		evs[i] = model.ClickEvent{
			Query: model.QueryID(rng.IntN(queries)),
			Item:  model.ItemID(rng.IntN(items)),
			Day:   max(next-int32(rng.IntN(11)), 0),
			Count: int32(rng.IntN(3) + 1),
		}
	}
	if rng.IntN(16) == 0 && n > 0 {
		evs[rng.IntN(n)].Count = 0 // a rejected batch: neither side moves
	}
	return evs
}

// TestWindowMatchesMapOracle runs random streams through the CSR window
// and the map-backed window it replaced, over window sizes 0 (unlimited)
// through 8: batches through AddAll and through per-event Add, drains at
// random points, every observable compared after every step.
func TestWindowMatchesMapOracle(t *testing.T) {
	const items, queries = 12, 10
	for w := 0; w <= 8; w++ {
		for seed := uint64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(w)))
			g, o := New(w), newMapWindow(w)
			for step := 0; step < 60; step++ {
				op := rng.IntN(5) // AddAll 0, Add 1, drain otherwise
				if op > 2 {
					op = 0
				}
				oracleStep(t, g, o, items, op, randBatch(rng, max(g.Stats().MaxDay, 0), items, queries))
			}
			oracleStep(t, g, o, items, 2, nil)
		}
	}
}

// FuzzWindow decodes a byte stream into steps — four bytes an event, a
// zero count ending the batch, the batch's first byte choosing AddAll,
// per-event Add or a drain — and checks the CSR window against the map
// oracle after every step.
func FuzzWindow(f *testing.F) {
	f.Add(uint8(7), []byte{1, 2, 3, 1, 4, 5, 3, 2, 0, 9, 9, 9, 9, 1, 1, 12, 1})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 30, 3})
	f.Add(uint8(3), []byte{5, 1, 2, 2, 3, 6, 7, 1, 1, 7, 7, 9, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, w uint8, data []byte) {
		const items, queries = 16, 16
		g, o := New(int(w%10)), newMapWindow(int(w%10))
		var batch []model.ClickEvent
		op := -1
		for len(data) >= 4 {
			b := data[:4]
			data = data[4:]
			if op < 0 {
				op = int(b[0]) % 3
			}
			if b[3]%4 == 0 { // end of batch
				oracleStep(t, g, o, items, op, batch)
				batch, op = batch[:0], -1
				continue
			}
			batch = append(batch, model.ClickEvent{
				Query: model.QueryID(int(b[0]) % queries),
				Item:  model.ItemID(int(b[1]) % items),
				Day:   int32(b[2] % 40),
				Count: int32(b[3] % 4),
			})
		}
		if op >= 0 {
			oracleStep(t, g, o, items, op, batch)
		}
		oracleStep(t, g, o, items, 2, nil)
	})
}

// TestIngestAllocs: once a full seven-day window has cycled, one more day
// through AddAll and its drain allocate a small fixed number of objects
// (the drained slice) whatever the day's size: the merge writes into the
// spare arrays, the new day into the evicted day's buffer.
func TestIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, events := range []int{200, 5000} {
		g := New(7)
		day := int32(0)
		days := make([][]model.ClickEvent, 16)
		for d := range days {
			days[d] = benchDay(int32(d), events)
		}
		ingest := func() {
			evs := days[day%16]
			for i := range evs {
				evs[i].Day = day
			}
			if err := g.AddAll(evs); err != nil {
				t.Fatal(err)
			}
			g.TakeChangedItems()
			day++
		}
		for range 40 {
			ingest()
		}
		if got := testing.AllocsPerRun(32, ingest); got > 2 {
			t.Errorf("%d events a day: %.1f allocations per ingested day, want <= 2", events, got)
		}
	}
}
