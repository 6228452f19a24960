package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/synth"
)

// TestEngineSequentialOrder checks that Sequential runs parallel calls
// one at a time in call order, and that timings come back in
// declaration order regardless of the order the stages ran in.
func TestEngineSequentialOrder(t *testing.T) {
	var order []string
	running := 0
	fj := newForkJoin(context.Background(), nil, true)
	rec := func(name string) func() {
		return fj.stage(name, func(context.Context) error {
			running++
			if running != 1 {
				t.Errorf("stage %s ran alongside another stage", name)
			}
			order = append(order, name)
			running--
			return nil
		})
	}
	c, a, b, d := rec("c"), rec("a"), rec("b"), rec("d")
	fj.parallel(a, b)
	fj.parallel(c, d)
	timings, err := fj.wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order = %v, want %v", order, want)
	}
	var names []string
	for _, st := range timings {
		names = append(names, st.Stage)
	}
	if want := []string{"c", "a", "b", "d"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("timing order = %v, want %v", names, want)
	}
}

// TestEngineSchedulerStress runs run's schedule shape with stub stages
// many times to shake out scheduling races (meaningful under -race):
// every stage must find each stage it reads already finished.
func TestEngineSchedulerStress(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		var mu sync.Mutex
		seen := make(map[string]bool)
		fj := newForkJoin(context.Background(), nil, false)
		requires := func(name string, deps ...string) func() {
			return fj.stage(name, func(context.Context) error {
				mu.Lock()
				defer mu.Unlock()
				for _, d := range deps {
					if !seen[d] {
						return fmt.Errorf("stage %s ran before dependency %s", name, d)
					}
				}
				seen[name] = true
				return nil
			})
		}
		clickGraph := requires("click-graph")
		entities := requires("entities")
		word2vec := requires("word2vec")
		entityGraph := requires("entity-graph", "entities", "click-graph", "word2vec")
		cluster := requires("parallel-hac", "entity-graph")
		cut := requires("taxonomy", "parallel-hac")
		describeTopics := requires("describe", "taxonomy")
		correlate := requires("category-correlation", "taxonomy")
		index := requires("search-index", "describe")

		fj.parallel(clickGraph, entities, word2vec)
		entityGraph()
		cluster()
		cut()
		fj.parallel(func() { describeTopics(); index() }, correlate)
		if _, err := fj.wait(); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 9 {
			t.Fatalf("ran %d stages, want 9", len(seen))
		}
	}
}

// TestEngineConcurrentExecution checks that parallel calls genuinely
// overlap: two stages blocked on each other's arrival can only finish if
// they run at the same time.
func TestEngineConcurrentExecution(t *testing.T) {
	gate := make(chan struct{}, 2)
	rendezvous := func(ctx context.Context) error {
		gate <- struct{}{}
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			if len(gate) == 2 {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fj := newForkJoin(ctx, nil, false)
	fj.parallel(fj.stage("left", rendezvous), fj.stage("right", rendezvous))
	if _, err := fj.wait(); err != nil {
		t.Fatalf("concurrent rendezvous failed: %v", err)
	}
}

// TestEngineStageError checks the first error's path: it names its
// stage, cancels a sibling still running, and a stage called after it
// does not run its body.
func TestEngineStageError(t *testing.T) {
	boom := errors.New("boom")
	running := make(chan struct{})
	siblingErr := make(chan error, 1)
	afterRan := false
	fj := newForkJoin(context.Background(), nil, false)
	sibling := fj.stage("sibling", func(ctx context.Context) error {
		close(running)
		select {
		case <-ctx.Done():
			siblingErr <- ctx.Err()
		case <-time.After(10 * time.Second):
			siblingErr <- errors.New("never canceled")
		}
		return ctx.Err()
	})
	fail := fj.stage("fail", func(ctx context.Context) error {
		<-running
		return boom
	})
	after := fj.stage("after", func(ctx context.Context) error {
		afterRan = true
		return nil
	})
	fj.parallel(sibling, fail)
	after()
	_, err := fj.wait()
	if !errors.Is(err, boom) {
		t.Fatalf("wait = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "core: stage fail: ") {
		t.Fatalf("error %q does not name the failing stage", err)
	}
	if err := <-siblingErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("running sibling saw %v, want context.Canceled", err)
	}
	if afterRan {
		t.Fatal("stage called after the failure ran its body")
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	fj := newForkJoin(ctx, nil, false)
	block := fj.stage("block", func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	next := fj.stage("next", func(context.Context) error { return nil })
	done := make(chan error, 1)
	go func() {
		fj.parallel(block)
		next()
		_, err := fj.wait()
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("wait = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("schedule did not return after cancellation")
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, synth.Curated(), scheduleTestConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx = %v, want context.Canceled", err)
	}
}

func scheduleTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Word2Vec.Epochs = 1
	cfg.Word2Vec.MinCount = 1
	cfg.Graph.MinSimilarity = 0.2
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12, 0.4}
	cfg.CatCorr.MinStrength = 0
	return cfg
}

func scheduleCorpus(t *testing.T) *model.Corpus {
	t.Helper()
	gen := synth.DefaultConfig()
	gen.Scenarios = 8
	gen.ItemsPerScenario = 40
	gen.QueriesPerScenario = 10
	gen.NoiseItems = 20
	gen.HeadQueries = 5
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// slide builds the corpus's clicks, less every 50th, as day 0 of a
// DailyPipeline, then ingests the held-back clicks as day 1 and returns
// that rebuild: a patch of day 0's entity graph.
func slide(t *testing.T, corpus *model.Corpus, cfg Config) *Build {
	t.Helper()
	p, err := NewDailyPipeline(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var days [2][]model.ClickEvent
	for i, ev := range corpus.Clicks {
		ev.Day = 0
		if i%50 == 0 {
			ev.Day = 1
		}
		days[ev.Day] = append(days[ev.Day], ev)
	}
	var b *Build
	for _, events := range days {
		if err := p.IngestDay(events); err != nil {
			t.Fatal(err)
		}
		if b, err = p.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	if b.Delta.DenseFallback || b.Delta.DirtyItems == 0 {
		t.Fatalf("day 1 is not a patch: %+v", *b.Delta)
	}
	return b
}

// stageEdges is the stage diagram in run's comment, one writer → reader
// edge a line.
var stageEdges = [][2]string{
	{"click-graph", "entity-graph"},
	{"entities", "entity-graph"},
	{"word2vec", "entity-graph"},
	{"entity-graph", "parallel-hac"},
	{"parallel-hac", "taxonomy"},
	{"taxonomy", "describe"},
	{"taxonomy", "category-correlation"},
	{"describe", "search-index"},
}

// TestStageSchedule holds the real pipeline's schedule to the stage
// diagram on every build path, under both schedules: the timings list
// the stages in declaration order, every stage starts after each stage
// it reads has finished, and Sequential runs no two stages at once.
func TestStageSchedule(t *testing.T) {
	corpus := scheduleCorpus(t)
	all := []string{"click-graph", "entities", "word2vec", "entity-graph", "parallel-hac",
		"taxonomy", "describe", "category-correlation", "search-index"}
	without := func(drop string) []string {
		var names []string
		for _, n := range all {
			if n != drop {
				names = append(names, n)
			}
		}
		return names
	}
	cases := []struct {
		name  string
		build func(t *testing.T, cfg Config) (*Build, error)
		want  []string
	}{
		{"run", func(_ *testing.T, cfg Config) (*Build, error) { return Run(corpus, cfg) }, all},
		{"run-no-embeddings", func(_ *testing.T, cfg Config) (*Build, error) {
			cfg.TrainEmbeddings = false
			return Run(corpus, cfg)
		}, without("word2vec")},
		{"run-with-clicks", func(_ *testing.T, cfg Config) (*Build, error) {
			clicks := bipartite.New(cfg.WindowDays)
			if err := clicks.AddAll(corpus.Clicks); err != nil {
				return nil, err
			}
			return RunWithClicks(corpus, clicks, cfg)
		}, without("click-graph")},
		{"daily-slide", func(t *testing.T, cfg Config) (*Build, error) { return slide(t, corpus, cfg), nil }, without("click-graph")},
	}
	for _, tc := range cases {
		for _, sequential := range []bool{false, true} {
			name := tc.name
			if sequential {
				name += "-sequential"
			}
			t.Run(name, func(t *testing.T) {
				cfg := scheduleTestConfig()
				cfg.Sequential = sequential
				b, err := tc.build(t, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				at := map[string]StageTiming{}
				for _, st := range b.StageTimings {
					names = append(names, st.Stage)
					at[st.Stage] = st
				}
				if !reflect.DeepEqual(names, tc.want) {
					t.Fatalf("stages = %v, want %v", names, tc.want)
				}
				for _, e := range stageEdges {
					w, okW := at[e[0]]
					r, okR := at[e[1]]
					if okW && okR && r.Start < w.Start+w.Elapsed {
						t.Errorf("%s started at %v, before %s finished at %v", e[1], r.Start, e[0], w.Start+w.Elapsed)
					}
				}
				if !sequential {
					return
				}
				for i, a := range b.StageTimings {
					for _, c := range b.StageTimings[i+1:] {
						if a.Start < c.Start+c.Elapsed && c.Start < a.Start+a.Elapsed {
							t.Errorf("sequential %s [%v, %v] overlaps %s [%v, %v]",
								a.Stage, a.Start, a.Start+a.Elapsed, c.Stage, c.Start, c.Start+c.Elapsed)
						}
					}
				}
			})
		}
	}
}

// TestConcurrentMatchesSequential is the schedule's determinism
// guarantee: the concurrent schedule must produce a byte-identical
// taxonomy (same topics, same order) and identical descriptions and
// correlations to the sequential schedule, with embeddings on, on a
// one-shot build and on a patched slide.
func TestConcurrentMatchesSequential(t *testing.T) {
	corpus := scheduleCorpus(t)
	cfg := scheduleTestConfig()
	cfg.Sequential = true
	seq, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqSlide := slide(t, corpus, cfg)
	cfg.Sequential = false
	conc, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	concSlide := slide(t, corpus, cfg)

	sameOutput(t, "one-shot", seq, conc)
	sameOutput(t, "slide", seqSlide, concSlide)
	if seq.Searcher == nil || conc.Searcher == nil {
		t.Fatal("missing searcher")
	}
	for _, probe := range []string{"beach dress", "laptop stand", corpus.Queries[0].Text} {
		if !reflect.DeepEqual(seq.Searcher.Search(probe, 5), conc.Searcher.Search(probe, 5)) {
			t.Fatalf("search results differ for %q", probe)
		}
	}
	// Both runs report one timing per executed stage, same stage set.
	if len(seq.StageTimings) != len(conc.StageTimings) {
		t.Fatalf("timing count differs: %d vs %d", len(seq.StageTimings), len(conc.StageTimings))
	}
	for i := range seq.StageTimings {
		if seq.StageTimings[i].Stage != conc.StageTimings[i].Stage {
			t.Fatalf("stage %d: %q vs %q", i, seq.StageTimings[i].Stage, conc.StageTimings[i].Stage)
		}
	}
}

// sameOutput fails unless the sequential and concurrent builds saved the
// same taxonomy bytes and produced equal descriptions and correlations.
func sameOutput(t *testing.T, what string, seq, conc *Build) {
	t.Helper()
	var seqBytes, concBytes bytes.Buffer
	if err := seq.Taxonomy.Save(&seqBytes); err != nil {
		t.Fatal(err)
	}
	if err := conc.Taxonomy.Save(&concBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqBytes.Bytes(), concBytes.Bytes()) {
		t.Fatalf("%s: taxonomies differ: sequential %d topics, concurrent %d topics",
			what, len(seq.Taxonomy.Topics), len(conc.Taxonomy.Topics))
	}
	if !reflect.DeepEqual(seq.Descriptions, conc.Descriptions) {
		t.Fatalf("%s: descriptions differ between sequential and concurrent runs", what)
	}
	if !reflect.DeepEqual(seq.Correlations.Pairs(), conc.Correlations.Pairs()) {
		t.Fatalf("%s: correlations differ between sequential and concurrent runs", what)
	}
}
