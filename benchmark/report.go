package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metric is one reported number. samples is how many timed samples it
// summarises (0 for counts and ratios).
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// report is the outcome of one run.
type report struct {
	traced            bool
	attempted, failed int64
	problems          []string
	// endToEnd are the gated metrics (untraced runs), perLayer the
	// traced run's layer metrics and diagnostics; diagnostics of an
	// untraced run are printed but not part of its result line.
	endToEnd, perLayer, diagnostics []metric
}

func (rep *report) correct() bool { return rep.failed == 0 }

// report derives every metric from the run's samples.
func (r *runner) report() *report {
	rep := &report{traced: r.opt.traced, attempted: r.attempted, failed: r.failed, problems: r.problems}
	rounds := len(r.slideMs)
	slides := float64(rounds)
	bursts := len(r.burstTick)
	calSlide := calibrate(r.slideMs, r.slideTick, r.kernMs)
	calSearch := calibrate(r.searchP50, r.burstTick, r.kernMs)
	calBrowse := calibrate(r.browseP50, r.burstTick, r.kernMs)

	rep.endToEnd = []metric{
		{"setup_s", "s", median(r.setupS), len(r.setupS)},
		{"slide_to_swap_p50_ms", "ms", typical(calSlide), rounds},
		{"slide_alloc_mb", "MB", float64(r.slideAlloc) / slides / (1 << 20), 0},
		{"search_p50_us", "us", typical(calSearch), bursts},
		{"browse_p50_us", "us", typical(calBrowse), bursts},
		{"serve_alloc_b_per_req", "B", float64(r.serveAlloc) / float64(r.requests), 0},
		{"peak_rss_mb", "MB", r.peakRSSMB, 0},
		{"root_nmi", "share", r.rootNMI, 0},
		{"topic_precision", "share", r.precision, 0},
	}

	loadedP50, loadedP99 := us(quantile(r.loadedSearch, 0.5)), us(quantile(r.loadedSearch, 0.99))
	rep.diagnostics = []metric{
		{"rounds", "count", slides, 0},
		{"raw.slide_to_swap_p50_ms", "ms", typical(r.slideMs), rounds},
		{"raw.search_p50_us", "us", typical(r.searchP50), bursts},
		{"raw.browse_p50_us", "us", typical(r.browseP50), bursts},
		{"cal.kernel_p50_ms", "ms", median(r.kernMs), len(r.kernMs)},
		{"cal.kernel_cv", "share", cv(r.kernMs), len(r.kernMs)},
		{"slide_to_swap_p90_ms", "ms", percentile(calSlide, 0.9), rounds},
		{"search_p99_us", "us", median(calibrate(r.searchP99, r.burstTick, r.kernMs)), bursts},
		{"serve_rps", "1/s", median(r.burstRPS), bursts},
		{"slide_cpu_ms", "ms", median(r.slideCPUMs), rounds},
		{"gc.cycles_per_slide", "count", float64(r.gcCycles) / slides, 0},
		{"gc.pause_ms_per_slide", "ms", float64(r.gcPauseNs) / 1e6 / slides, 0},
		{"loaded.search_p50_us", "us", loadedP50, len(r.loadedSearch)},
		{"loaded.search_p99_us", "us", loadedP99, len(r.loadedSearch)},
		{"loaded.slide_p50_ms", "ms", median(r.loadedSlideMs), len(r.loadedSlideMs)},
	}
	if !r.opt.traced {
		return rep
	}

	rp := r.replay
	n := float64(rp.slides)
	share := func(layer []float64) float64 {
		ratios := make([]float64, len(layer))
		for i := range layer {
			ratios[i] = layer[i] / rp.rebuildMs[i]
		}
		return median(ratios)
	}
	index := make([]float64, len(rp.docsMs))
	for i := range index {
		index[i] = rp.docsMs[i] + rp.indexMs[i]
	}
	rebuild := median(r.rebuildMs)
	// catcorr runs beside describe and ends before the search index
	// does, so it is not one of the steps that block the result.
	blocking := median(rp.graphMs) + median(rp.hacMs) + median(rp.taxonomyMs) + median(rp.describeMs) + median(index)
	search, direct := median(r.classP50[classSearch]), median(r.directSearchUs)
	rep.perLayer = append([]metric{
		{"bipartite.ingest_ms", "ms", median(rp.ingestMs), rp.slides},
		{"bipartite.events_per_day", "count", float64(len(r.events)), 0},
		{"bipartite.dirty_items", "count", float64(rp.dirtyItems) / n, 0},
		{"bipartite.dropped_stale", "count", float64(rp.clicks.Stats().DroppedStale), 0},
		{"entitygraph.build_ms", "ms", median(rp.graphMs), rp.slides},
		{"entitygraph.share", "share", share(rp.graphMs), rp.slides},
		{"entitygraph.dirty_rows", "count", float64(rp.dirtyRows) / n, 0},
		{"entitygraph.changed_edges", "count", float64(rp.changedEdges) / n, 0},
		{"entitygraph.dense_fallback_share", "share", float64(rp.denseFallbacks) / n, 0},
		{"entitygraph.edges", "count", float64(r.edges), 0},
		{"entitygraph.entities_ms", "ms", rp.entitiesMs, 1},
		{"phac.cluster_ms", "ms", median(rp.hacMs), rp.slides},
		{"phac.share", "share", share(rp.hacMs), rp.slides},
		{"phac.rounds", "count", float64(rp.hacRounds) / n, 0},
		{"phac.seeded_rows", "count", float64(rp.seededRows) / n, 0},
		{"phac.replayed_rounds", "count", float64(rp.replayedRounds) / n, 0},
		{"phac.cold_share", "share", float64(rp.coldClusterings) / n, 0},
		{"phac.root_modularity", "share", r.rootModular, 0},
		{"taxonomy.build_ms", "ms", median(rp.taxonomyMs), rp.slides},
		{"taxonomy.share", "share", share(rp.taxonomyMs), rp.slides},
		{"taxonomy.topics", "count", float64(r.topics), 0},
		{"describe.ms", "ms", median(rp.describeMs), rp.slides},
		{"describe.share", "share", share(rp.describeMs), rp.slides},
		{"searchindex.docs_ms", "ms", median(rp.docsMs), rp.slides},
		{"searchindex.build_ms", "ms", median(rp.indexMs), rp.slides},
		{"searchindex.share", "share", share(index), rp.slides},
		{"catcorr.ms", "ms", median(rp.catcorrMs), rp.slides},
		{"catcorr.share", "share", share(rp.catcorrMs), rp.slides},
		{"word2vec.train_ms", "ms", rp.word2vecMs, 1},
		{"core.rebuild_ms", "ms", rebuild, rounds},
		{"core.overhead_ms", "ms", rebuild - blocking, rounds},
		{"serve.swap_us", "us", median(rp.swapUs), rp.slides},
		{"serve.search_us", "us", search, bursts},
		{"searcher.search_us", "us", direct, bursts},
		{"serve.search_self_us", "us", search - direct, bursts},
		{"serve.topic_us", "us", median(r.classP50[classTopic]), bursts},
		{"serve.items_us", "us", median(r.classP50[classItems]), bursts},
		{"serve.related_us", "us", median(r.classP50[classRelated]), bursts},
		{"obs.middleware_us", "us", median(r.middlewareUs), bursts},
		{"trace.overhead_share", "share", median(rp.slideMs)/median(r.slideMs) - 1, rounds},
		{"trace.span_coverage", "share", blocking / rebuild, rounds},
	}, rep.diagnostics...)
	rep.diagnostics = nil
	return rep
}

// print writes the human-readable table.
func (rep *report) print(w io.Writer) {
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s", m.name, m.value, m.unit)
			if m.samples > 0 {
				fmt.Fprintf(w, " n=%d", m.samples)
			}
			fmt.Fprintln(w)
		}
	}
	if !rep.traced {
		section("end-to-end (calibrated timings at reference machine speed):", rep.endToEnd)
	}
	section("per-layer (raw medians from the traced run):", rep.perLayer)
	section("diagnostics (never gated):", rep.diagnostics)
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", rep.attempted, rep.failed)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
}

// resultLine is the machine-readable last line of standard output:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (rep *report) resultLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	ms := rep.endToEnd
	if rep.traced {
		ms = rep.perLayer
	}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	if err := enc.Encode(out); err != nil {
		return "", fmt.Errorf("result line: %w", err)
	}
	return strings.TrimSpace(sb.String()), nil
}
