// Command shoal-serve builds a SHOAL taxonomy and serves it over HTTP —
// the online counterpart of the deployed system, which answers millions of
// topic searches per day (paper §1, §3).
//
// Usage:
//
//	shoal-serve -addr :8080                       # curated mini corpus
//	shoal-serve -addr :8080 -corpus corpus.json.gz
//	shoal-serve -addr :8080 -refresh 24h          # daily rebuild + hot swap
//
// Endpoints: /api/search?q=..., /api/topics/{id},
// /api/topics/{id}/items[?category=N], /api/categories/{id}/related,
// /api/stats (stage timings, swap count, per-route latency digests),
// /api/trace (the serving build's Chrome trace-event JSON), and
// /metrics (Prometheus text, including runtime health gauges).
//
// With -refresh the server mirrors the production operation mode: each
// tick runs one DailyPipeline.Step in the background — ingest a day,
// rebuild by patching the entity graph from the window's changed items
// over the entities and embeddings built at start-up, measure stability
// against the previous build — logs its report, and atomically swaps the
// build into the running handler. Requests in flight keep their
// snapshot, new requests see the new taxonomy, and the listener never
// goes down. The start-up build is the pipeline's first step.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"shoal/internal/core"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/serve"
	"shoal/internal/store"
	"shoal/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoal-serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	corpusPath := flag.String("corpus", "", "corpus to build from (empty: curated mini corpus)")
	refresh := flag.Duration("refresh", 0, "interval between background rebuilds hot-swapped into the handler (0 disables)")
	pprofAddr := flag.String("pprof", "", "side listener address exposing net/http/pprof (e.g. localhost:6060; empty disables)")
	flag.Parse()

	// Profiling stays off the serving listener: a dedicated mux on a side
	// address, so production traffic never routes near the profiler and
	// the port can stay firewalled.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s (try /debug/pprof/)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, obs.PprofMux()); err != nil {
				log.Printf("pprof listener failed: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	corpus := synth.Curated()
	if *corpusPath != "" {
		var err error
		corpus, err = store.LoadCorpus(*corpusPath)
		if err != nil {
			log.Fatal(err)
		}
	}

	// The daily pipeline owns the sliding click window; its first step
	// is the build we start serving from.
	pipe, err := core.NewDailyPipeline(corpus, core.CuratedConfig(*corpusPath != ""))
	if err != nil {
		log.Fatal(err)
	}
	b, rep, err := pipe.Step(ctx, corpus.Clicks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built taxonomy in %v: topics=%d roots=%d\n",
		rep.Rebuild.Round(time.Millisecond), rep.Topics, len(b.Taxonomy.Roots()))
	for _, st := range b.StageTimings {
		fmt.Printf("  %-22s start=%-8v elapsed=%v\n",
			st.Stage, st.Start.Round(time.Millisecond), st.Elapsed.Round(time.Millisecond))
	}

	h, err := serve.NewHandler(b)
	if err != nil {
		log.Fatal(err)
	}
	// Runtime health gauges (heap, GC pauses, goroutines) land in the
	// handler's registry, so /metrics serves them next to the request
	// telemetry.
	go obs.NewRuntimeSampler(h.Registry()).Run(ctx, 5*time.Second)
	if *refresh > 0 {
		go refreshLoop(ctx, pipe, h, *refresh, corpus.Clicks)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: h,
		// Every route is a GET with a short query string: a client gets 2 s
		// and 16 KB for its request line and headers, not ReadTimeout's 5 s
		// and net/http's default 1 MB.
		ReadHeaderTimeout: 2 * time.Second,
		MaxHeaderBytes:    16 << 10,
		ReadTimeout:       5 * time.Second,
		WriteTimeout:      10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("serving on %s (try /api/search?q=beach+dress)\n", *addr)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("shut down cleanly")
}

// refreshLoop periodically steps the pipeline over the next day's clicks
// and hot-swaps the result into the handler. A failed or canceled step
// leaves the currently served build untouched.
func refreshLoop(ctx context.Context, pipe *core.DailyPipeline, h *serve.Handler, every time.Duration, clicks []model.ClickEvent) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		// Replay the same click stream shifted past the current window,
		// preserving per-event day offsets — a stand-in for the production
		// system's fresh logs. The shift keeps the window at a constant
		// click mass: the replayed span evicts the previous one.
		shift := pipe.Window().MaxDay + 1
		next := make([]model.ClickEvent, len(clicks))
		for i, ev := range clicks {
			next[i] = ev
			next[i].Day = ev.Day + shift
		}
		b, rep, err := pipe.Step(ctx, next)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Printf("refresh: step failed: %v", err)
			continue
		}
		if err := h.Swap(b); err != nil {
			log.Printf("refresh: swap rejected: %v", err)
			continue
		}
		log.Printf("refresh: swapped build #%d %v", h.Swaps(), rep)
	}
}
