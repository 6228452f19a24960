// Daily demonstrates the production operating mode (paper §3): SHOAL is
// built from a sliding window over the last seven days of search queries
// and refreshed as new days of click logs arrive. The example streams two
// weeks of synthetic clicks through the window; each day's rebuild
// recomputes only what the window slide changed (byte-identical to
// from-scratch), and the example reports the per-day delta alongside
// topics and day-over-day structural stability.
package main

import (
	"context"
	"fmt"
	"log"

	"shoal"
)

func main() {
	log.SetFlags(0)

	gen := shoal.DefaultCorpusConfig()
	gen.Scenarios = 12
	gen.ItemsPerScenario = 80
	gen.Days = 14
	corpus, err := shoal.GenerateCorpus(gen)
	if err != nil {
		log.Fatal(err)
	}
	// Replay the clicks as a production-shaped stream: head demand — the
	// vast majority of (query, item) pairs — recurs every day, while a 2%
	// rotating tail lives on a single day each. A window slide then
	// perturbs only the small tail set, the regime the delta-driven
	// rebuild exploits; higher churn trips the patch density gate and
	// falls back to a full build (still byte-identical, just not cheap).
	byDay := make([][]shoal.ClickEvent, gen.Days)
	for i, ev := range corpus.Clicks {
		if i%50 == 0 { // churning tail: one day each
			ev.Day = int32(i/50) % int32(gen.Days)
			byDay[ev.Day] = append(byDay[ev.Day], ev)
			continue
		}
		for d := int32(0); d < int32(gen.Days); d++ { // recurring head
			ev.Day = d
			byDay[d] = append(byDay[d], ev)
		}
	}

	cfg := shoal.DefaultConfig()
	cfg.WindowDays = 7
	cfg.Word2Vec.Epochs = 2
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12, 0.3, 0.5}
	pipeline, err := shoal.NewDailyPipeline(corpus, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streaming %d days of clicks through a %d-day window (incremental rebuilds)\n\n", gen.Days, cfg.WindowDays)
	fmt.Printf("%-5s %-16s %-8s %-10s %s\n", "day", "window-queries", "topics", "stability", "delta (dirty-items/dirty-rows)")
	for day := 0; day < gen.Days; day++ {
		if day < cfg.WindowDays-1 { // wait until the window is full
			if err := pipeline.IngestDay(byDay[day]); err != nil {
				log.Fatal(err)
			}
			continue
		}
		_, rep, err := pipeline.Step(context.Background(), byDay[day])
		if err != nil {
			log.Fatal(err)
		}
		stability := "   -"
		if rep.HasStability {
			stability = fmt.Sprintf("%.3f", rep.Stability)
		}
		delta := fmt.Sprintf("%d/%d", rep.Delta.DirtyItems, rep.Delta.DirtyRows)
		if rep.Delta.DenseFallback {
			delta += " (dense fallback)"
		}
		fmt.Printf("%-5d %-16d %-8d %-10s %s\n", day, rep.Window.Queries, rep.Topics, stability, delta)
	}
	fmt.Println("\nstability = fraction of root-topic item pairs preserved by the next build")
}
