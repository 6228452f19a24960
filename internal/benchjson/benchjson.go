// Package benchjson runs the graph-substrate micro-benchmarks at a
// fixed, larger-than-unit-test synthetic scale and emits machine-readable
// ns/op + allocs/op per benchmark. cmd/shoal-bench -benchjson uses it to
// write BENCH_<pr>.json files, giving the repo a benchmark trajectory
// across PRs that CI diffs with the regression gate (Gate /
// cmd/shoal-bench -benchgate): any benchmark name shared between two
// BENCH files whose ns/op regresses past the threshold fails the build.
//
// Methodology note: BENCH_3.json onward records the best of three runs
// per benchmark (the minimum ns/op is the least noise-contaminated
// estimate); BENCH_2.json and earlier were single runs, so comparisons
// against them carry the old files' scheduler noise in addition to real
// deltas. BENCH_10.json onward measures the gated sub-unity ratio
// (incremental-vs-full) as a paired interleaved ratio — both sides
// alternate inside one timing window, so slow machine-speed drift
// cancels out of the quotient — instead of dividing two best-of-three
// entries measured minutes apart, which let ±8% drift swamp a
// structural gap of the same size. The absolute ns/op entries for the
// two underlying operations are still best-of-three. BENCH_25.json
// onward measures the other gated ratio (obs-overhead-vs-bare) the same
// way, and no longer carries the construction shard-count sweep and its
// three *-vs-serial ratios: the chunked builder they timed is deleted
// (ROADMAP, "One CSR, one diffusion").
//
// The suite is declared once (NewSuite) and has two drivers: Run, behind
// shoal-bench -benchjson, and the root package's BenchmarkSubstrate
// under go test -bench. Both time the world FixedWorld builds, one full
// pipeline build per process; nothing is cached between processes.
package benchjson

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"shoal/internal/bm25"
	"shoal/internal/describe"
	"shoal/internal/entitygraph"
	"shoal/internal/hac"
	"shoal/internal/modularity"
	"shoal/internal/phac"
	"shoal/internal/serve"
	"shoal/internal/taxonomy"
	"shoal/internal/textutil"
	"shoal/internal/wgraph"
)

// Result is one benchmark's outcome at the fixed scale.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Bench is one timed entry of the substrate suite: an operation on the
// fixed world, run b.N times by whichever driver times it.
type Bench struct {
	Name string
	Op   func() error
}

// Ratio is one derived entry: the time of Cand over the time of Base,
// the two sides alternating inside one timing window (pairedRatio).
type Ratio struct {
	Name       string
	Base, Cand func() error
}

// Suite is the substrate benchmark suite, declared once for its two
// drivers: Run (shoal-bench -benchjson) times Benches best of three and
// measures Ratios paired, and the root package's BenchmarkSubstrate runs
// Benches under go test -bench, each under its own name.
type Suite struct {
	Benches []Bench // in name order
	Ratios  []Ratio
}

// NewSuite builds the suite's inputs on FixedWorld — the BM25 index, the
// serving handler, the slide and ingest worlds — and declares its
// operations. Nothing is timed.
func NewSuite() (*Suite, error) {
	b, clicks, sizes, err := FixedWorld()
	if err != nil {
		return nil, err
	}
	g := b.Graph
	labels := b.Dendrogram.CutAt(0.12)
	docs := make([][]string, 0, len(b.Corpus.Items))
	for i := range b.Corpus.Items {
		docs = append(docs, textutil.Tokenize(b.Corpus.Items[i].Title))
	}
	idx, err := bm25.Build(docs, bm25.DefaultConfig())
	if err != nil {
		return nil, err
	}
	query := textutil.Tokenize(b.Corpus.Queries[0].Text)
	edges := g.Edges() // materialized once: csr-from-edges times CSR construction only
	ctx := context.Background()
	cfg := fixedWorldConfig()

	s := &Suite{Benches: []Bench{
		// Comparable across every BENCH_*.json generation.
		{"diffuse-r2", func() error {
			_, err := phac.Diffuse(g, 2, 0.12)
			return err
		}},
		{"phac-cluster", func() error {
			_, err := phac.Cluster(ctx, g, sizes, phac.Config{StopThreshold: 0.12, DiffusionRounds: 2})
			return err
		}},
		{"hac-sequential", func() error {
			_, err := hac.Cluster(g, sizes, hac.Config{StopThreshold: 0.12})
			return err
		}},
		{"modularity", func() error {
			_, err := modularity.Compute(g, labels)
			return err
		}},
		{"entitygraph-build", func() error {
			_, err := entitygraph.Build(ctx, b.Entities, clicks, b.Embeddings, entitygraph.DefaultConfig())
			return err
		}},
		{"csr-from-edges", func() error {
			_, err := wgraph.FromEdges(g.NumNodes(), edges)
			return err
		}},
		{"bm25-topk", func() error {
			idx.TopK(query, 10)
			return nil
		}},
		// phac-cluster as the pipeline runs it: phac.DefaultConfig's r at
		// the fixture's stop threshold.
		{"phac-cluster-default", func() error {
			hcfg := phac.DefaultConfig()
			hcfg.StopThreshold = cfg.HAC.StopThreshold
			_, err := phac.Cluster(ctx, g, sizes, hcfg)
			return err
		}},
		// Deeper exchange budget than the paper's r=2: late iterations
		// converge, so this point tracks what Diffuse's early exit saves
		// once an iteration changes nothing. The name stays for the
		// committed BENCH_*.json files that carry it.
		{"diffuse-r6", func() error {
			_, err := phac.Diffuse(g, 6, 0.12)
			return err
		}},
		// Per-slide rebuild cost of topic descriptions, text plane warm:
		// id-built BM25 index and one scoring pass per distinct query.
		{"describe", func() error {
			_, err := describe.Describe(ctx, b.Taxonomy, b.Corpus, clicks, describe.DefaultConfig())
			return err
		}},
		// The rest of the slide's tail, as the pipeline's stages run it:
		// three dendrogram cuts assembled into the topic tree, and the
		// search documents assembled as text-plane term ids and indexed.
		{"taxonomy-build", func() error {
			_, err := taxonomy.Build(ctx, b.Dendrogram, b.Entities, b.Corpus, cfg.Taxonomy)
			return err
		}},
		{"search-index", func() error {
			docs := b.SearchDocIDs(cfg.SearchDocTokenCap)
			_, err := taxonomy.NewSearcherIDs(ctx, b.Taxonomy, docs, b.Corpus.Text().Vocab())
			return err
		}},
	}}
	// Serving hot path through the full instrumented handler (middleware,
	// per-route histograms, status-class counters) versus the same mux
	// with the instrumentation bypassed. The derived obs-overhead-vs-bare
	// ratio below is what the gate watches: request telemetry must stay
	// under ObsOverheadCeiling on the search path.
	handler, err := serve.NewHandler(b)
	if err != nil {
		return nil, err
	}
	bareMux := handler.Bare()
	searchTarget := "/api/search?q=" + url.QueryEscape(b.Corpus.Queries[0].Text) + "&k=10"
	topicTarget := fmt.Sprintf("/api/topics/%d", b.Taxonomy.Roots()[0])
	sink := nopWriter{h: make(http.Header)}
	serveOp := func(h http.Handler, target string) func() error {
		return func() error {
			h.ServeHTTP(&sink, httptest.NewRequest("GET", target, nil))
			return nil
		}
	}
	// /api/stats encodes a latency digest for every route that has served
	// a request: serve one on each route this suite reports before any
	// timing, so serve-stats measures the same payload wherever it runs
	// in the order.
	for _, target := range []string{searchTarget, "/api/stats"} {
		handler.ServeHTTP(&sink, httptest.NewRequest("GET", target, nil))
	}
	// serve-swap (which renders every topic's summary head, the cost the
	// routes no longer pay per request) and serve-topic run on a second
	// handler: /api/stats reports the swap count and a digest per route
	// served, so handler's payload stays the one BENCH_26.json measured.
	other, err := serve.NewHandler(b)
	if err != nil {
		return nil, err
	}
	// One-day window slide, rebuilt both ways from identical precomputed
	// inputs: daily-rebuild runs the from-scratch graph construction the
	// pre-incremental pipeline paid every day; incremental-rebuild
	// sort-merges the slide's dirty rows into the retained CSR. Both then
	// cluster the resulting graph from scratch, as every build does. The
	// derived incremental-vs-full ratio below is what the gate watches
	// (IncrementalVsFullCeiling).
	sw, err := buildSlideWorld(b)
	if err != nil {
		return nil, err
	}
	dailyOp := func() error {
		res, err := entitygraph.Build(ctx, b.Entities, sw.window, b.Embeddings, sw.gcfg)
		if err != nil {
			return err
		}
		_, err = phac.Cluster(ctx, res.Graph, sizes, sw.hcfg)
		return err
	}
	incOp := func() error {
		res, _, _, err := entitygraph.BuildIncremental(ctx, b.Entities, sw.window, b.Embeddings, sw.gcfg, sw.st, sw.dirty)
		if err != nil {
			return err
		}
		_, err = phac.Cluster(ctx, res.Graph, sizes, sw.hcfg)
		return err
	}
	// One steady-state day of the click window: a day's clicks merged
	// into the full seven-day window, the oldest day merged out, and the
	// changed items drained — the slide's bipartite.ingest layer.
	iw, err := newIngestWorld(sw.days)
	if err != nil {
		return nil, err
	}
	s.Benches = append(s.Benches,
		Bench{"serve-search", serveOp(handler, searchTarget)},
		Bench{"serve-search-bare", serveOp(bareMux, searchTarget)},
		Bench{"serve-stats", serveOp(handler, "/api/stats")},
		Bench{"serve-swap", func() error { return other.Swap(b) }},
		Bench{"serve-topic", serveOp(other, topicTarget)},
		Bench{"daily-rebuild", dailyOp},
		Bench{"incremental-rebuild", incOp},
		Bench{"window-ingest", iw.slide},
	)
	// Timed in name order: a benchmark inherits the heap and handler
	// state its predecessors left, so a fixed order keeps that
	// inheritance the same from one BENCH file to the next.
	sort.Slice(s.Benches, func(i, j int) bool { return s.Benches[i].Name < s.Benches[j].Name })

	// One paired serving op is a batch of requests: a single search is
	// ≈10 µs, too short to time between two clock reads, and a thousand
	// of them put the pair at the rebuild pair's scale.
	searchBatch := func(h http.Handler) func() error {
		return func() error {
			for i := 0; i < 1000; i++ {
				h.ServeHTTP(&sink, httptest.NewRequest("GET", searchTarget, nil))
			}
			return nil
		}
	}
	s.Ratios = []Ratio{
		// incremental-vs-full: delta-driven slide rebuild time over the
		// from-scratch rebuild of the same window (dimensionless, lower
		// is better; 1.0 means incrementality saves nothing). Hard-gated
		// at IncrementalVsFullCeiling so the delta path must keep a real
		// margin.
		{"incremental-vs-full", dailyOp, incOp},
		// obs-overhead-vs-bare: instrumented search serving time over the
		// same handler with the middleware bypassed (dimensionless, lower
		// is better; 1.0 means the telemetry is free). Hard-gated at
		// ObsOverheadCeiling so the request instrumentation can never
		// quietly grow past its <10% budget on the search hot path. Up to
		// BENCH_23.json it was serve-search over serve-search-bare, two
		// entries timed minutes apart, and it crept 1.024 → 1.076 over
		// four files while the traced middleware cost stayed at 0.1-0.3
		// µs of a 10 µs request.
		{"obs-overhead-vs-bare", searchBatch(bareMux), searchBatch(handler)},
	}
	return s, nil
}

// Run builds the suite and times it: the paired ratios first, then every
// timed entry in name order, best of three. It returns the results
// sorted by name.
func Run() ([]Result, error) {
	s, err := NewSuite()
	if err != nil {
		return nil, err
	}
	// The paired gated ratios are measured before the best-of-three sweep,
	// on the same small live heap every run (fixture + slide world only):
	// the sweep leaves a large heap behind, and GC assists over it
	// systematically inflate the allocation-heavier side of the pair by a
	// few percent — real money for a gate whose margin is single-digit
	// percent. Measured paired, not by dividing two best-of-three
	// entries: the quotient of two windows minutes apart carries the
	// machine's drift between them, the quotient of one interleaved
	// window does not. NsPerOp then holds a dimensionless quotient, so
	// the gate can hold it to a fixed ceiling across runners.
	out := make([]Result, 0, len(s.Benches)+len(s.Ratios))
	for _, r := range s.Ratios {
		q, err := pairedRatio(r.Base, r.Cand)
		if err != nil {
			return nil, fmt.Errorf("benchjson: %s: %w", r.Name, err)
		}
		out = append(out, Result{Name: r.Name, NsPerOp: q})
	}
	for _, e := range s.Benches {
		var opErr error
		fn := func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if err := e.Op(); err != nil && opErr == nil {
					opErr = err
				}
			}
		}
		// Best of three: the minimum ns/op is the least scheduler-noise
		// contaminated estimate, which keeps the committed trajectory
		// (and the CI regression gate over it) stable run to run.
		var best Result
		for rep := 0; rep < 3; rep++ {
			r := testing.Benchmark(fn)
			if opErr != nil {
				return nil, fmt.Errorf("benchjson: %s: %w", e.Name, opErr)
			}
			cand := Result{
				Name:        e.Name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Iterations:  r.N,
			}
			if rep == 0 || cand.NsPerOp < best.NsPerOp {
				best = cand
			}
		}
		out = append(out, best)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// pairedRatio measures the dimensionless cand/base time ratio for the
// tight-margin gated ratios by alternating the two operations inside one
// timing window: three reps, each running base/cand pairs back to back
// until the rep has at least minPairs pairs and minWindow of wall time
// (capped at maxPairs), with one untimed pair up front to warm both
// sides' caches. The reported value is the median of five reps.
// Interleaving makes slow machine-speed drift hit both sides of the
// quotient equally and cancel, where dividing two independently timed
// benchmarks lets drift between their windows masquerade as a
// structural change — fatal for a gate whose real margin is single-digit
// percent. Two further noise sources get neutralized explicitly: each
// rep starts from a collected heap (the ratio would otherwise inherit
// whatever garbage the preceding ten minutes of benchmarks left live,
// inflating GC assists unequally), and the order within a pair flips
// every iteration so GC debt triggered by one op but paid inside the
// other's timing window — first-order on a single-CPU runner — cancels
// across the rep instead of biasing whichever op runs second.
func pairedRatio(base, cand func() error) (float64, error) {
	const (
		minPairs  = 10
		maxPairs  = 40
		minWindow = 800 * time.Millisecond
	)
	var ratios [5]float64
	for rep := range ratios {
		runtime.GC()
		if err := base(); err != nil {
			return 0, err
		}
		if err := cand(); err != nil {
			return 0, err
		}
		var tBase, tCand time.Duration
		for pairs := 1; pairs <= maxPairs; pairs++ {
			first, second := base, cand
			if pairs%2 == 0 {
				first, second = cand, base
			}
			t0 := time.Now()
			if err := first(); err != nil {
				return 0, err
			}
			t1 := time.Now()
			if err := second(); err != nil {
				return 0, err
			}
			d1, d2 := t1.Sub(t0), time.Since(t1)
			if pairs%2 == 0 {
				d1, d2 = d2, d1
			}
			tBase += d1
			tCand += d2
			if pairs >= minPairs && tBase+tCand >= minWindow {
				break
			}
		}
		ratios[rep] = float64(tCand) / float64(tBase)
	}
	sorted := ratios[:]
	sort.Float64s(sorted)
	return sorted[len(sorted)/2], nil
}

// nopWriter is the serving benchmarks' response sink: headers land in a
// reused map, bodies are counted and dropped. It keeps the benchmark on
// the handler + instrumentation cost instead of response buffering.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// WriteFile runs the suite and writes the results as indented JSON.
func WriteFile(path string) error {
	results, err := Run()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a BENCH_*.json results file.
func ReadFile(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return out, nil
}

// DefaultThreshold is the relative ns/op tolerance of the
// committed-trajectory gate and the default of shoal-bench
// -gate-threshold. It is also the line between the strict gate and a
// wide-tolerance one: a ceiling that widens does so only for a caller
// asking for more than this.
const DefaultThreshold = 0.25

// ObsOverheadCeiling is the hard ceiling for the obs-overhead-vs-bare
// derived ratio: instrumented search serving time over the bare-mux
// time. At or above it the request telemetry (middleware, per-route
// histogram, status-class counters) costs 10%+ of the search hot path,
// which the gate fails outright — the observability layer's contract is
// that measuring the serving tier never becomes a tax worth turning
// off. The ceiling is strict — 1.10 — at any threshold up to
// DefaultThreshold, which is how the committed trajectory is gated; a
// gate asked for more (the runner-side re-run on noisy shared hardware,
// 0.5) widens it to 1 + threshold, the proportional slack its ns/op
// comparisons get, and a middleware gone quadratic (1.6x) still fails.
const ObsOverheadCeiling = 1.10

// IncrementalVsFullCeiling is the hard ceiling for the derived
// incremental-vs-full ratio: delta-driven slide rebuild time over a
// from-scratch rebuild of the same window. Both sides run the same
// from-scratch clustering, so the ratio is (patch + cluster) over
// (build + cluster): at or above the ceiling the sort-merge CSR patch
// no longer beats rebuilding the entity graph by a real margin, and
// the incremental path has lost its reason to exist. At reference the
// fixture pays ≈3.5 ms to patch or ≈10 ms to build ahead of ≈12.8 ms
// of clustering, a paired ratio of 0.70-0.72 over five cuts
// (BENCH_22.json). The ratio has two ways to rise with the patch no
// slower — a faster clustering and a faster full build — and PR 22 was
// the second: 0.56 in BENCH_21.json, when the same patch (≈4.4 ms) ran
// against an ≈18 ms build, under a line of 0.75. The line is re-based
// to 0.80, which keeps what it allowed then — a patch costing up to
// ≈0.55 of the build it replaces (0.35 today) — and leaves the paired
// ratio 0.08 of headroom for runner noise, more than the other
// ceilings have. That is why this ratio has a ceiling and no relative
// gate, and why the ceiling moves when its denominator does.
// Unlike the > 1 ceiling above, this one does NOT widen with the gate's
// relative threshold: the ratio's whole budget sits below 1.0, so
// adding the threshold on top would let the win silently evaporate on
// wide-tolerance runners.
const IncrementalVsFullCeiling = 0.80

// ratioGates lists the derived ratios and the hard ceiling each is
// judged by. A ratio answers to its ceiling and nothing else: its
// numerator and denominator are gated against the old trajectory under
// their own names, and a relative check on the quotient would fail a
// change for speeding up the denominator.
var ratioGates = []struct {
	name    string
	ceiling float64
	// widens lifts the ceiling to 1 + threshold for a gate run at more
	// than DefaultThreshold, so a wide-tolerance runner-side gate gives
	// the ratio the same slack as its ns/op comparisons.
	widens bool
	lost   string // what a ratio at or above the ceiling means
}{
	{"obs-overhead-vs-bare", ObsOverheadCeiling, true,
		"request instrumentation blew its search hot-path budget"},
	{"incremental-vs-full", IncrementalVsFullCeiling, false,
		"the delta-driven rebuild lost its margin over recomputing from scratch"},
}

// Regressions compares two result sets and reports every benchmark name
// present in both whose ns/op grew by more than threshold (a fraction:
// 0.25 means "fail past +25%"). Benchmarks only in one set are ignored —
// the gate constrains the shared trajectory, it does not force every PR
// to keep the same suite. The derived ratios in the new set (ratioGates)
// are exempt from that comparison and fail instead, whether or not the
// old set knew them, at or above their hard ceiling. The report is
// sorted by name.
func Regressions(oldRes, newRes []Result, threshold float64) []string {
	prev := make(map[string]Result, len(oldRes))
	for _, r := range oldRes {
		prev[r.Name] = r
	}
	var out []string
results:
	for _, n := range newRes {
		for _, g := range ratioGates {
			if g.name != n.Name {
				continue
			}
			ceiling := g.ceiling
			if g.widens && threshold > DefaultThreshold {
				ceiling = max(ceiling, 1+threshold)
			}
			if n.NsPerOp >= ceiling {
				out = append(out, fmt.Sprintf("%s: ratio %.2f >= %.2f — %s", n.Name, n.NsPerOp, ceiling, g.lost))
			}
			continue results
		}
		o, ok := prev[n.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		if n.NsPerOp > o.NsPerOp*(1+threshold) {
			out = append(out, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, gate %+.0f%%)",
				n.Name, o.NsPerOp, n.NsPerOp, 100*(n.NsPerOp/o.NsPerOp-1), 100*threshold))
		}
	}
	sort.Strings(out)
	return out
}

// Gate loads two BENCH_*.json files and returns the regression report
// (empty when the gate passes).
func Gate(oldPath, newPath string, threshold float64) ([]string, error) {
	oldRes, err := ReadFile(oldPath)
	if err != nil {
		return nil, err
	}
	newRes, err := ReadFile(newPath)
	if err != nil {
		return nil, err
	}
	return Regressions(oldRes, newRes, threshold), nil
}
