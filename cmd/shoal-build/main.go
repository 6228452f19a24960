// Command shoal-build runs the full SHOAL pipeline over a corpus and saves
// the resulting taxonomy.
//
// Usage:
//
//	shoal-build -corpus corpus.json.gz -out taxonomy.gob
//	shoal-build -corpus corpus.json.gz -alpha 0.7 -stop 0.12 -r 2 -v
//	shoal-build -corpus corpus.json.gz -trace build-trace.json
//	shoal-build -corpus corpus.json.gz -incremental -v    # day-by-day delta rebuilds
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"shoal/internal/core"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoal-build: ")

	var (
		corpusPath = flag.String("corpus", "corpus.json.gz", "input corpus path")
		out        = flag.String("out", "taxonomy.gob", "output taxonomy path (gob)")
		alpha      = flag.Float64("alpha", 0.7, "Eq. 3 blend weight of query-driven similarity")
		stop       = flag.Float64("stop", 0.12, "clustering stop threshold")
		diffusion  = flag.Int("r", 2, "diffusion iterations per Parallel HAC round")
		minSim     = flag.Float64("minsim", 0.25, "entity-graph edge filter")
		noEmbed    = flag.Bool("no-embeddings", false, "skip word2vec (query-driven similarity only)")
		sequential = flag.Bool("sequential", false, "run pipeline stages one at a time instead of concurrently")
		increment  = flag.Bool("incremental", false, "replay the corpus click log day by day through the sliding-window pipeline, each day's rebuild patching the previous day's entity graph; the final day's taxonomy is saved (per-day delta stats with -v)")
		tracePath  = flag.String("trace", "", "write the build's execution trace as Chrome trace-event JSON (open in chrome://tracing or Perfetto)")
		pprofAddr  = flag.String("pprof", "", "side listener address exposing net/http/pprof during the build (e.g. localhost:6060; empty disables)")
		verbose    = flag.Bool("v", false, "print stage timings and statistics")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s (try /debug/pprof/)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, obs.PprofMux()); err != nil {
				log.Printf("pprof listener failed: %v", err)
			}
		}()
	}

	// Ctrl-C / SIGTERM cancels the in-flight stages instead of killing the
	// process mid-write.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	corpus, err := store.LoadCorpus(*corpusPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Graph.Alpha = *alpha
	cfg.Graph.MinSimilarity = *minSim
	cfg.HAC.StopThreshold = *stop
	cfg.HAC.DiffusionRounds = *diffusion
	cfg.TrainEmbeddings = !*noEmbed
	cfg.Sequential = *sequential
	cfg.Word2Vec.Epochs = 2
	cfg.Word2Vec.Dim = 24
	if *stop < cfg.Taxonomy.Levels[0] {
		cfg.Taxonomy.Levels = []float64{*stop, 0.3, 0.5}
	}

	var b *core.Build
	if *increment {
		b, err = buildIncremental(ctx, corpus, cfg, *verbose)
	} else {
		b, err = core.RunContext(ctx, corpus, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		spans := b.Trace.Records()
		for _, st := range b.StageTimings {
			line := fmt.Sprintf("%-22s start=%-12v elapsed=%v", st.Stage, st.Start, st.Elapsed)
			if st.Stage == "parallel-hac" {
				// What the clustering's time went into, summed over its
				// round spans: rows the diffusion phases recomputed,
				// mutual-best pairs selection verified, pairs merged.
				total := map[string]int{}
				for _, sp := range spans {
					if sp.Parent != st.Stage {
						continue
					}
					for _, a := range sp.Attrs {
						if n, ok := a.Value.(int); ok {
							total[a.Key] += n
						}
					}
				}
				line += fmt.Sprintf(" rounds=%d", len(b.Rounds))
				for _, key := range []string{"recomputedRows", "candidates", "selected"} {
					line += fmt.Sprintf(" %s=%d", key, total[key])
				}
			}
			fmt.Fprintln(os.Stderr, line)
			// Sub-stage spans of the stages around clustering, with the
			// counts that size their work (entity-graph: query-sets
			// dirtyEntities, candidates scored pairs regenerated, rank
			// rescored nodesRanked, emit dirtyRows kept;
			// describe/score: distinctQueries, candidatePairs;
			// search-index/build: tokens).
			// The clustering's round spans are summed on its line above.
			if st.Stage == "parallel-hac" {
				continue
			}
			for _, sp := range spans {
				if sp.Parent != st.Stage {
					continue
				}
				line := fmt.Sprintf("  %-20s elapsed=%v", sp.Name, sp.Duration)
				for _, a := range sp.Attrs {
					line += fmt.Sprintf(" %s=%v", a.Key, a.Value)
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := b.Trace.WriteChrome(tf); err != nil {
			log.Fatal(err)
		}
		if err := tf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans -> %s\n", b.Trace.SpanCount(), *tracePath)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := b.Taxonomy.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %s\n", corpus.Stats())
	fmt.Printf("taxonomy: topics=%d roots=%d entities=%d correlations=%d -> %s\n",
		len(b.Taxonomy.Topics), len(b.Taxonomy.Roots()),
		len(b.Entities.Entities), len(b.Correlations.Pairs()), *out)
}

// buildIncremental replays the corpus click log day by day through the
// sliding-window pipeline: every day is one Step, its rebuild patching
// the previous day's entity graph, so it recomputes only what that day's
// slide changed. Returns the final day's build — byte-identical to a
// from-scratch build over the final window.
func buildIncremental(ctx context.Context, corpus *model.Corpus, cfg core.Config, verbose bool) (*core.Build, error) {
	var maxDay int32
	for _, ev := range corpus.Clicks {
		if ev.Day > maxDay {
			maxDay = ev.Day
		}
	}
	byDay := make([][]model.ClickEvent, maxDay+1)
	for _, ev := range corpus.Clicks {
		byDay[ev.Day] = append(byDay[ev.Day], ev)
	}

	pipe, err := core.NewDailyPipeline(corpus, cfg)
	if err != nil {
		return nil, err
	}
	var b *core.Build
	for day, events := range byDay {
		var rep core.StepReport
		if b, rep, err = pipe.Step(ctx, events); err != nil {
			return nil, err
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "day %-3d %v\n", day, rep)
		}
	}
	return b, nil
}
