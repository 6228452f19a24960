package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shoal/internal/bipartite"
	"shoal/internal/core"
	"shoal/internal/eval"
	"shoal/internal/model"
	"shoal/internal/modularity"
	"shoal/internal/serve"
	"shoal/internal/taxonomy"
)

const (
	// minRounds is the fewest interleaved rounds a run makes however
	// short --seconds is; maxRounds sizes the preallocated sample
	// buffers.
	minRounds = 10
	maxRounds = 512
	// qualityRound is the slide whose build the quality metrics are
	// computed on: the first whose whole window arrived through the
	// incremental path, and fixed so that root_nmi and topic_precision
	// do not depend on how many rounds the machine fit into --seconds.
	qualityRound = 8
	// verifyEvery is the sampling rate of decoded search responses.
	verifyEvery = 100
	// loadedChunk is how many requests the concurrent phase's client
	// sends between looks at its stop flag.
	loadedChunk = 64
)

// options selects one run.
type options struct {
	w       workload
	seed    uint64
	seconds float64
	// traced adds the layer-by-layer replay and the request-path
	// decomposition to every round and reports the per-layer metrics.
	traced bool
	// traceOut is where the traced run writes its Chrome trace.
	traceOut string
	// tamper, if set, replaces every build on its way to Handler.Swap;
	// tests use it to prove that a wrong build fails the run.
	tamper func(*core.Build) *core.Build
}

// benchConfig is the fixed program configuration: the production loop
// as shoal-build runs it, with single-threaded word2vec so that quality
// metrics and the from-scratch check are exact.
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Word2Vec.Epochs = 2
	cfg.Word2Vec.Dim = 24
	cfg.Word2Vec.Workers = 1
	cfg.Incremental = true
	cfg.WindowDays = windowDays
	return cfg
}

// runner holds one run's program under test, inputs and samples.
type runner struct {
	opt  options
	cfg  core.Config
	kern *kernel

	gen     *generator
	pipe    *core.DailyPipeline
	handler *serve.Handler
	traffic *traffic
	client  *client
	replay  *replay

	events []model.ClickEvent // reused day buffer
	day    int                // next day to ingest
	idx    []int32            // reused burst request indices
	lat    []int32            // reused burst latencies
	class  []int32            // reused per-class latency scratch

	attempted, failed int64
	problems          []string

	// kernMs holds kernelRuns samples per tick; slideTick and burstTick
	// say which tick preceded each slide and burst sample.
	kernMs               []float64
	slideTick, burstTick []int
	// One sample per set-up, slide or burst.
	setupS                                     []float64
	slideMs, ingestMs, rebuildMs, slideCPUMs   []float64
	searchP50, searchP99, browseP50, burstRPS  []float64
	classP50                                   [numClasses][]float64
	directSearchUs, middlewareUs               []float64
	slideAlloc, serveAlloc                     uint64
	gcCycles                                   uint32
	gcPauseNs                                  uint64
	requests                                   int64
	peakRSSMB, rootNMI, precision, rootModular float64
	topics, edges                              int
	loadedSlideMs                              []float64
	loadedSearch                               []int32
}

// problem records a failed output check.
func (r *runner) problem(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setup generates the inputs, fills the first window, runs the cold
// build and starts serving it.
func setup(ctx context.Context, w workload, seed uint64, cfg core.Config) (*generator, *core.DailyPipeline, *serve.Handler, error) {
	gen, err := newGenerator(w, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	pipe, err := core.NewDailyPipeline(gen.corpus, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var events []model.ClickEvent
	for d := 0; d < windowDays; d++ {
		events = gen.day(d, events)
		if err := pipe.IngestDay(events); err != nil {
			return nil, nil, nil, err
		}
	}
	b, err := pipe.RebuildContext(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	h, err := serve.NewHandler(b)
	if err != nil {
		return nil, nil, nil, err
	}
	return gen, pipe, h, nil
}

// run executes one workload run and returns its report.
func run(ctx context.Context, opt options, log io.Writer) (*report, error) {
	r := &runner{opt: opt, cfg: benchConfig(), kern: newKernel()}
	r.kern.run() // fault the kernel's buffers in before it is a yardstick

	// Set-up is repeated so that its time is a median; the last one is
	// the program the rounds run against. Kernel runs just before and
	// after each calibrate it.
	setups := opt.w.setups
	if opt.traced {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		r.gen, r.pipe, r.handler = nil, nil, nil
		runtime.GC()
		var k [2 * kernelRuns]float64
		for j := 0; j < kernelRuns; j++ {
			k[j] = r.kern.run()
		}
		t0 := time.Now()
		gen, pipe, h, err := setup(ctx, opt.w, opt.seed, r.cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		el := time.Since(t0)
		for j := kernelRuns; j < 2*kernelRuns; j++ {
			k[j] = r.kern.run()
		}
		r.setupS = append(r.setupS, el.Seconds()*calRefMs/median(k[:]))
		r.gen, r.pipe, r.handler = gen, pipe, h
	}
	r.day = windowDays
	first := r.handler.Current()
	tr, err := newTraffic(r.gen.corpus, len(first.Taxonomy.Topics)/2, opt.seed)
	if err != nil {
		return nil, err
	}
	r.traffic = tr
	r.client = newClient(tr.pool)
	r.idx = make([]int32, opt.w.burst)
	r.lat = make([]int32, opt.w.burst)
	r.class = make([]int32, 0, opt.w.burst)
	ticks := maxRounds * (1 + opt.w.bursts)
	r.kernMs = make([]float64, 0, ticks*kernelRuns)
	r.slideTick, r.burstTick = make([]int, 0, maxRounds), make([]int, 0, ticks)
	for _, s := range []*[]float64{&r.slideMs, &r.ingestMs, &r.rebuildMs, &r.slideCPUMs} {
		*s = make([]float64, 0, maxRounds)
	}
	for _, s := range []*[]float64{&r.searchP50, &r.searchP99, &r.browseP50, &r.burstRPS} {
		*s = make([]float64, 0, ticks)
	}
	if opt.traced {
		r.replay = newReplay(r.gen.corpus, r.cfg)
		days := make([][]model.ClickEvent, windowDays)
		for d := range days {
			days[d] = r.gen.day(d, nil)
		}
		if err := r.replay.cold(ctx, days); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	start := time.Now()
	budget := time.Duration(opt.seconds * float64(time.Second))
	for round := 0; round < maxRounds && (round < minRounds || time.Since(start) < budget); round++ {
		if err := r.round(ctx, round); err != nil {
			return nil, err
		}
	}
	r.peakRSSMB = peakRSSMB()
	if opt.traced {
		r.compareTaxonomies(r.pipe.Last(), r.replay.last, "traced replay's final taxonomy differs from the pipeline's")
	}
	if err := r.loaded(ctx); err != nil {
		return nil, err
	}
	if err := r.finalChecks(); err != nil {
		return nil, err
	}
	if opt.traced && opt.traceOut != "" {
		if err := writeTrace(r.replay, opt.traceOut); err != nil {
			return nil, err
		}
	}
	rep := r.report()
	rep.print(log)
	return rep, nil
}

// slide is the unit the benchmark exists to time: a day of clicks
// enters the window, the window becomes a taxonomy, the taxonomy is
// swapped in under the handler. It returns the wall time of the three
// calls.
func (r *runner) slide(ctx context.Context) (ingest, rebuild, total time.Duration, err error) {
	r.attempted++
	t0 := time.Now()
	if err = r.pipe.IngestDay(r.events); err != nil {
		return 0, 0, 0, fmt.Errorf("slide: %w", err)
	}
	t1 := time.Now()
	b, err := r.pipe.RebuildContext(ctx)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("slide: %w", err)
	}
	t2 := time.Now()
	if r.opt.tamper != nil {
		b = r.opt.tamper(b)
	}
	if err = r.handler.Swap(b); err != nil {
		return 0, 0, 0, fmt.Errorf("slide: %w", err)
	}
	return t1.Sub(t0), t2.Sub(t1), time.Since(t0), nil
}

// tick runs the calibration kernel and returns the index of the tick:
// every timed operation is preceded by one, so each operation's samples
// and the kernel samples next to them span the whole run, and the
// tens-of-seconds drift of the shared box can be divided out.
func (r *runner) tick() int {
	for i := 0; i < kernelRuns; i++ {
		r.kernMs = append(r.kernMs, r.kern.run())
	}
	return len(r.kernMs)/kernelRuns - 1
}

// round is one interleaved unit: a slide, then the workload's request
// bursts, each behind its own calibration tick.
func (r *runner) round(ctx context.Context, round int) error {
	r.events = r.gen.day(r.day, r.events)
	r.day++
	tick := r.tick()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	ingest, rebuild, total, err := r.slide(ctx)
	if err != nil {
		return err
	}
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	r.slideTick = append(r.slideTick, tick)
	r.slideMs = append(r.slideMs, ms(total))
	r.ingestMs = append(r.ingestMs, ms(ingest))
	r.rebuildMs = append(r.rebuildMs, ms(rebuild))
	r.slideCPUMs = append(r.slideCPUMs, ms(cpu1-cpu0))
	r.slideAlloc += m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles += m1.NumGC - m0.NumGC
	r.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs

	built := r.pipe.Last()
	if r.opt.traced {
		b, err := r.replay.slide(ctx, round, r.events)
		if err != nil {
			return err
		}
		r.attempted++
		if !slices.Equal(b.Taxonomy.ItemTopic, built.Taxonomy.ItemTopic) {
			r.problem("round %d: traced replay places items differently from the pipeline", round)
		}
	}
	for i := 0; i < r.opt.w.bursts; i++ {
		r.burst(built, (round+i)%2 == 1)
	}
	if round+1 == qualityRound {
		return r.quality(built)
	}
	return nil
}

// burst sends one burst of the request stream against the serving
// build and verifies a sample of its responses. In a traced run it also
// decomposes the request path; bareFirst says which side of the
// middleware difference goes first, so that neither always runs on the
// caches the other warmed.
func (r *runner) burst(built *core.Build, bareFirst bool) {
	r.traffic.next(r.idx)
	tick := r.tick()
	bareMedian := 0.0
	if r.opt.traced && bareFirst {
		bareMedian = r.bareBurst()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	failed := r.client.burst(r.handler, r.idx, r.lat)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.serveAlloc += m1.TotalAlloc - m0.TotalAlloc
	r.requests += int64(len(r.idx))
	r.attempted += int64(len(r.idx))
	if failed > 0 {
		r.failed += int64(failed)
		r.problems = append(r.problems, fmt.Sprintf("burst %d: %d requests answered a status other than 200", len(r.burstTick), failed))
	}
	r.burstTick = append(r.burstTick, tick)
	r.burstRPS = append(r.burstRPS, float64(len(r.idx))/wall.Seconds())
	search := r.client.classify(r.class, r.idx, r.lat, isSearch)
	r.searchP50 = append(r.searchP50, us(quantile(search, 0.5)))
	r.searchP99 = append(r.searchP99, us(quantile(search, 0.99)))
	r.browseP50 = append(r.browseP50, us(quantile(r.client.classify(r.class, r.idx, r.lat, isBrowse), 0.5)))

	if r.opt.traced {
		for c := reqClass(0); c < numClasses; c++ {
			one := r.client.classify(r.class, r.idx, r.lat, func(k reqClass) bool { return k == c })
			r.classP50[c] = append(r.classP50[c], us(quantile(one, 0.5)))
		}
		all := us(quantile(r.client.classify(r.class, r.idx, r.lat, func(reqClass) bool { return true }), 0.5))
		if !bareFirst {
			bareMedian = r.bareBurst()
		}
		r.middlewareUs = append(r.middlewareUs, all-bareMedian)
		r.directSearchUs = append(r.directSearchUs, r.directSearch(built))
	}
	r.verifyResponses(built)
}

// bareBurst replays the round's requests through the uninstrumented
// mux and returns the median latency in µs.
func (r *runner) bareBurst() float64 {
	lat := make([]int32, len(r.idx))
	r.client.burst(r.handler.Bare(), r.idx, lat)
	slices.Sort(lat)
	return us(quantile(lat, 0.5))
}

// directSearch runs the round's search queries straight against the
// build's Searcher and returns the median call in µs: what is left of
// serve.search_us is mux, parameter parsing, JSON and snapshot load.
func (r *runner) directSearch(b *core.Build) float64 {
	lat := r.class[:0]
	for _, at := range r.idx {
		rq := &r.client.pool[at]
		if rq.class != classSearch {
			continue
		}
		t0 := time.Now()
		hits := b.Searcher.Search(rq.query, searchK)
		lat = append(lat, int32(time.Since(t0)))
		runtime.KeepAlive(hits)
	}
	slices.Sort(lat)
	return us(quantile(lat, 0.5))
}

// verifyResponses re-sends every verifyEvery-th search of the round's
// burst, decodes the response and compares it with Searcher.Search on
// the build that served it (no swap can intervene: the rounds are
// single-threaded). Garbage queries must answer 200 with no hits.
func (r *runner) verifyResponses(b *core.Build) {
	if r.handler.Current() != b && r.opt.tamper == nil {
		r.problem("handler is not serving the build the pipeline just produced")
	}
	serving := r.handler.Current()
	seen := 0
	for _, at := range r.idx {
		rq := &r.client.pool[at]
		if rq.class != classSearch {
			continue
		}
		if seen++; seen%verifyEvery != 0 {
			continue
		}
		r.attempted++
		w := httptest.NewRecorder()
		r.handler.ServeHTTP(w, rq.req)
		var got []serve.TopicSummary
		if w.Code != http.StatusOK {
			r.problem("search %q: status %d", rq.query, w.Code)
			continue
		}
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			r.problem("search %q: undecodable response: %v", rq.query, err)
			continue
		}
		want := serving.Searcher.Search(rq.query, searchK)
		ok := len(got) == len(want) && (!rq.miss || len(got) == 0)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i].ID == want[i].Topic && got[i].Score == want[i].Score
		}
		if !ok {
			r.problem("search %q: response disagrees with Searcher.Search on the serving build", rq.query)
		}
	}
}

// quality computes the clustering-quality metrics on b.
func (r *runner) quality(b *core.Build) error {
	part, err := eval.TopicPartition(b.Taxonomy, r.gen.corpus)
	if err != nil {
		return fmt.Errorf("quality: %w", err)
	}
	r.rootNMI = part.NMI()
	prec, err := eval.Precision(b.Taxonomy, r.gen.corpus, eval.DefaultPrecisionConfig())
	if err != nil {
		return fmt.Errorf("quality: %w", err)
	}
	r.precision = prec.Precision
	r.rootModular, err = modularity.Compute(b.Graph, b.Dendrogram.CutAt(r.cfg.HAC.StopThreshold))
	if err != nil {
		return fmt.Errorf("quality: %w", err)
	}
	r.topics, r.edges = len(b.Taxonomy.Topics), b.Graph.NumEdges()
	return nil
}

// loaded is the concurrent phase: back-to-back slides while one client
// goroutine sends the request mix closed-loop. Its latencies are
// diagnostics (they depend on how two threads share two cores); what
// it checks is that no request fails across the swaps.
func (r *runner) loaded(ctx context.Context) error {
	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		sent   int64
		failed int
	)
	r.loadedSearch = make([]int32, 0, 1<<20)
	idx, lat := r.idx[:loadedChunk], r.lat[:loadedChunk]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			r.traffic.next(idx)
			failed += r.client.burst(r.handler, idx, lat)
			sent += int64(len(idx))
			for i, at := range idx {
				if r.client.pool[at].class == classSearch && len(r.loadedSearch) < cap(r.loadedSearch) {
					r.loadedSearch = append(r.loadedSearch, lat[i])
				}
			}
		}
	}()
	var err error
	for i := 0; i < r.opt.w.loadedSlides && err == nil; i++ {
		r.events = r.gen.day(r.day, r.events)
		r.day++
		var total time.Duration
		_, _, total, err = r.slide(ctx)
		r.loadedSlideMs = append(r.loadedSlideMs, ms(total))
	}
	stop.Store(true)
	wg.Wait()
	r.attempted += sent
	if failed > 0 {
		r.failed += int64(failed)
		r.problems = append(r.problems, fmt.Sprintf("concurrent phase: %d of %d requests answered a status other than 200", failed, sent))
	}
	slices.Sort(r.loadedSearch)
	return err
}

// finalChecks verifies the serving build against a from-scratch build
// of the same window and that no click was dropped as stale.
func (r *runner) finalChecks() error {
	r.attempted += 2
	if dropped := r.pipe.Window().DroppedStale; dropped != 0 {
		r.problem("window dropped %d events as stale", dropped)
	}
	clicks := bipartite.New(windowDays)
	for d := r.day - windowDays; d < r.day; d++ {
		r.events = r.gen.day(d, r.events)
		if err := clicks.AddAll(r.events); err != nil {
			return fmt.Errorf("from-scratch check: %w", err)
		}
	}
	cfg := r.cfg
	cfg.Incremental = false
	scratch, err := core.RunWithClicks(r.gen.corpus, clicks, cfg)
	if err != nil {
		return fmt.Errorf("from-scratch check: %w", err)
	}
	r.compareTaxonomies(r.handler.Current(), scratch, "serving taxonomy differs from a from-scratch build of the same window")
	return nil
}

func (r *runner) compareTaxonomies(a, b *core.Build, what string) {
	r.attempted++
	if !bytes.Equal(saved(a.Taxonomy), saved(b.Taxonomy)) {
		r.problem("%s", what)
	}
}

func saved(tx *taxonomy.Taxonomy) []byte {
	var buf bytes.Buffer
	if err := tx.Save(&buf); err != nil {
		return []byte(err.Error())
	}
	return buf.Bytes()
}

func writeTrace(rp *replay, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := rp.trace.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
