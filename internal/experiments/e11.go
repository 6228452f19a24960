package experiments

import (
	"context"
	"fmt"

	"shoal/internal/core"
	"shoal/internal/eval"
	"shoal/internal/model"
	"shoal/internal/synth"
)

// E11Daily reproduces the production operating mode (§3): SHOAL is built
// from a sliding window over the last seven days of queries and refreshed
// as days arrive. The table tracks per-day placement precision and
// day-over-day structural stability — the two signals a production owner
// watches before publishing a daily build.
func E11Daily(sc Scale, seed uint64, totalDays int) (*Table, error) {
	gen := corpusConfig(sc, seed)
	gen.Days = totalDays
	corpus, err := synth.Generate(gen)
	if err != nil {
		return nil, err
	}
	byDay := make([][]model.ClickEvent, totalDays)
	for _, ev := range corpus.Clicks {
		byDay[ev.Day] = append(byDay[ev.Day], ev)
	}

	cfg := pipelineConfig()
	cfg.WindowDays = 7
	p, err := core.NewDailyPipeline(corpus, cfg)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:         "E11",
		Title:      "Daily sliding-window rebuild (7-day window)",
		PaperClaim: "constructed from a sliding window containing search queries in the last seven days",
		Header:     []string{"day", "window-queries", "topics", "precision", "stability-vs-prev"},
	}
	for day := 0; day < totalDays; day++ {
		if day < 6 { // wait for a full window
			if err := p.IngestDay(byDay[day]); err != nil {
				return nil, err
			}
			continue
		}
		b, rep, err := p.Step(context.Background(), byDay[day])
		if err != nil {
			return nil, err
		}
		res, err := eval.Precision(b.Taxonomy, corpus, eval.PrecisionConfig{
			SampleTopics: 1000, ItemsPerTopic: 100, MinTopicItems: 3,
			RootTopicsOnly: true, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		stab := "n/a"
		if rep.HasStability {
			stab = f3(rep.Stability)
		}
		t.Rows = append(t.Rows, []string{
			itoa(day), itoa(rep.Window.Queries), itoa(rep.Topics), pct(res.Precision), stab,
		})
	}
	t.Notes = append(t.Notes,
		"stability: fraction of root-topic item pairs preserved by the next day's build",
		fmt.Sprintf("catalog fixed at %d items; clicks stream day by day with 7-day eviction", len(corpus.Items)),
		"extension: the paper states the operating mode without metrics; see DESIGN.md 4")
	return t, nil
}
