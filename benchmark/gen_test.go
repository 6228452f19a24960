package main

import (
	"context"
	"slices"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/core"
	"shoal/internal/model"
)

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// eventStream is the first days of a seed's click stream.
func eventStream(t *testing.T, w workload, seed uint64, days int) []model.ClickEvent {
	t.Helper()
	g, err := newGenerator(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var all []model.ClickEvent
	for d := 0; d < days; d++ {
		all = append(all, g.day(d, nil)...)
	}
	return all
}

// requestStream is the first n request URLs of a seed's request stream.
func requestStream(t *testing.T, w workload, seed uint64, n int) []string {
	t.Helper()
	g, err := newGenerator(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTraffic(g.corpus, 100, seed)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int32, n)
	tr.next(idx)
	urls := make([]string, n)
	for i, at := range idx {
		urls[i] = tr.pool[at].req.URL.String()
	}
	return urls
}

func TestStreamsFollowSeed(t *testing.T) {
	w := mustWorkload(t, "lowchurn")
	if !slices.Equal(eventStream(t, w, 1, 10), eventStream(t, w, 1, 10)) {
		t.Error("equal seeds gave different click streams")
	}
	if slices.Equal(eventStream(t, w, 1, 10), eventStream(t, w, 2, 10)) {
		t.Error("different seeds gave the same click stream")
	}
	if !slices.Equal(requestStream(t, w, 1, 5000), requestStream(t, w, 1, 5000)) {
		t.Error("equal seeds gave different request streams")
	}
	if slices.Equal(requestStream(t, w, 1, 5000), requestStream(t, w, 2, 5000)) {
		t.Error("different seeds gave the same request stream")
	}
}

// A day must not depend on which days were generated before it: the
// from-scratch check regenerates the last window out of order.
func TestDayIsPureFunctionOfSeedAndDay(t *testing.T) {
	g, err := newGenerator(mustWorkload(t, "highchurn"), 3)
	if err != nil {
		t.Fatal(err)
	}
	first := slices.Clone(g.day(9, nil))
	g.day(4, nil)
	if !slices.Equal(first, g.day(9, nil)) {
		t.Error("day 9 changed after generating day 4")
	}
}

// churn measures a workload's steady-state share of items whose query
// set changes per day, and its clicks per day.
func churn(t *testing.T, w workload, seed uint64) (dirtyShare, clicksPerDay float64) {
	t.Helper()
	g, err := newGenerator(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	clicks := bipartite.New(windowDays)
	var buf []model.ClickEvent
	const measured = 5
	dirty, events := 0, 0
	for d := 0; d < windowDays+measured; d++ {
		buf = g.day(d, buf)
		if err := clicks.AddAll(buf); err != nil {
			t.Fatal(err)
		}
		changed := clicks.TakeChangedItems()
		if d >= windowDays {
			dirty += len(changed)
			events += len(buf)
		}
	}
	return float64(dirty) / measured / float64(len(g.corpus.Items)), float64(events) / measured
}

func TestChurnLevelsAndEqualVolume(t *testing.T) {
	low, lowClicks := churn(t, mustWorkload(t, "lowchurn"), 1)
	high, highClicks := churn(t, mustWorkload(t, "highchurn"), 1)
	if low < 0.005 || low > 0.02 {
		t.Errorf("lowchurn dirty-item share %.4f outside 0.5-2%%", low)
	}
	if high < 0.20 || high > 0.30 {
		t.Errorf("highchurn dirty-item share %.4f outside 20-30%%", high)
	}
	if ratio := highClicks / lowClicks; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("clicks/day differ by more than 10%%: lowchurn %.0f, highchurn %.0f", lowClicks, highClicks)
	}
	if testing.Short() {
		return
	}
	if big, _ := churn(t, mustWorkload(t, "bigcorpus"), 1); big < 0.20 || big > 0.30 {
		t.Errorf("bigcorpus dirty-item share %.4f outside 20-30%%", big)
	}
}

// The two churn levels exist to put the same layers on opposite paths.
func TestChurnSelectsDeltaPathOrDenseFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six cold builds")
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		fallback bool
	}{{"lowchurn", false}, {"highchurn", true}} {
		for seed := uint64(1); seed <= 3; seed++ {
			gen, pipe, _, err := setup(ctx, mustWorkload(t, tc.name), seed, benchConfig())
			if err != nil {
				t.Fatal(err)
			}
			var buf []model.ClickEvent
			for d := windowDays; d < windowDays+4; d++ {
				buf = gen.day(d, buf)
				if err := pipe.IngestDay(buf); err != nil {
					t.Fatal(err)
				}
				var b *core.Build
				if b, err = pipe.RebuildContext(ctx); err != nil {
					t.Fatal(err)
				}
				if b.Delta.DenseFallback != tc.fallback {
					t.Errorf("%s seed %d day %d: dense fallback = %v, want %v", tc.name, seed, d, b.Delta.DenseFallback, tc.fallback)
				}
			}
		}
	}
}
