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

	"shoal/internal/synth"
)

func noop(ctx context.Context, b *Build) error { return nil }

func TestEngineValidation(t *testing.T) {
	cases := []struct {
		name   string
		stages []Stage
		want   string
	}{
		{"empty", nil, "at least one stage"},
		{"unnamed", []Stage{StageFunc("", nil, noop)}, "empty name"},
		{"duplicate", []Stage{StageFunc("a", nil, noop), StageFunc("a", nil, noop)}, "duplicate"},
		{"unknown-dep", []Stage{StageFunc("a", []string{"ghost"}, noop)}, "unknown stage"},
		{"self-dep", []Stage{StageFunc("a", []string{"a"}, noop)}, "depends on itself"},
		{"cycle", []Stage{
			StageFunc("a", []string{"b"}, noop),
			StageFunc("b", []string{"a"}, noop),
		}, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewEngine(tc.stages...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewEngine = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestEngineSequentialOrder verifies that maxConcurrent=1 yields the
// deterministic topological order with registration order as tiebreak.
func TestEngineSequentialOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	rec := func(name string) func(context.Context, *Build) error {
		return func(ctx context.Context, b *Build) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}
	eng, err := NewEngine(
		StageFunc("c", []string{"a", "b"}, rec("c")),
		StageFunc("a", nil, rec("a")),
		StageFunc("b", []string{"a"}, rec("b")),
		StageFunc("d", []string{"c"}, rec("d")),
	)
	if err != nil {
		t.Fatal(err)
	}
	timings, err := eng.Execute(context.Background(), &Build{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order = %v, want %v", order, want)
	}
	// Timings come back in registration order regardless.
	var names []string
	for _, st := range timings {
		names = append(names, st.Stage)
	}
	if want := []string{"c", "a", "b", "d"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("timing order = %v, want %v", names, want)
	}
}

// TestEngineConcurrentExecution checks that independent stages genuinely
// overlap: two root stages blocked on each other's arrival can only finish
// if they run at the same time.
func TestEngineConcurrentExecution(t *testing.T) {
	gate := make(chan struct{}, 2)
	rendezvous := func(ctx context.Context, b *Build) error {
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
	eng, err := NewEngine(
		StageFunc("left", nil, rendezvous),
		StageFunc("right", nil, rendezvous),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := eng.Execute(ctx, &Build{}, 0); err != nil {
		t.Fatalf("concurrent rendezvous failed: %v", err)
	}
}

func TestEngineStageError(t *testing.T) {
	boom := errors.New("boom")
	var ran sync.Map
	eng, err := NewEngine(
		StageFunc("ok", nil, func(ctx context.Context, b *Build) error {
			ran.Store("ok", true)
			return nil
		}),
		StageFunc("fail", []string{"ok"}, func(ctx context.Context, b *Build) error {
			return boom
		}),
		StageFunc("after", []string{"fail"}, func(ctx context.Context, b *Build) error {
			ran.Store("after", true)
			return nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Execute(context.Background(), &Build{}, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("Execute = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "stage fail") {
		t.Fatalf("error %q does not name the failing stage", err)
	}
	if _, ok := ran.Load("after"); ok {
		t.Fatal("stage after the failure still ran")
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng, err := NewEngine(
		StageFunc("block", nil, func(ctx context.Context, b *Build) error {
			<-ctx.Done()
			return ctx.Err()
		}),
		StageFunc("next", []string{"block"}, noop),
	)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := eng.Execute(ctx, &Build{}, 0)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Execute did not return after cancellation")
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, synth.Curated(), engineTestConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx = %v, want context.Canceled", err)
	}
}

func engineTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Word2Vec.Epochs = 1
	cfg.Word2Vec.MinCount = 1
	cfg.Graph.MinSimilarity = 0.2
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12, 0.4}
	cfg.CatCorr.MinStrength = 0
	return cfg
}

// TestConcurrentMatchesSequential is the engine's determinism guarantee:
// the concurrent schedule must produce a byte-identical taxonomy (same
// topics, same order) and identical descriptions and correlations to the
// sequential schedule, with embeddings on.
func TestConcurrentMatchesSequential(t *testing.T) {
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
	cfg := engineTestConfig()
	cfg.Sequential = true
	seq, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sequential = false
	conc, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var seqBytes, concBytes bytes.Buffer
	if err := seq.Taxonomy.Save(&seqBytes); err != nil {
		t.Fatal(err)
	}
	if err := conc.Taxonomy.Save(&concBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqBytes.Bytes(), concBytes.Bytes()) {
		t.Fatalf("taxonomies differ: sequential %d topics, concurrent %d topics",
			len(seq.Taxonomy.Topics), len(conc.Taxonomy.Topics))
	}
	if !reflect.DeepEqual(seq.Descriptions, conc.Descriptions) {
		t.Fatal("descriptions differ between sequential and concurrent runs")
	}
	if !reflect.DeepEqual(seq.Correlations.Pairs(), conc.Correlations.Pairs()) {
		t.Fatal("correlations differ between sequential and concurrent runs")
	}
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

// TestEngineSchedulerStress runs the full pipeline stage graph shape with
// stub stages many times to shake out scheduling races (meaningful under
// -race).
func TestEngineSchedulerStress(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		var mu sync.Mutex
		seen := make(map[string]bool)
		requires := func(name string, deps ...string) Stage {
			return StageFunc(name, deps, func(ctx context.Context, b *Build) error {
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
		eng, err := NewEngine(
			requires("click-graph"),
			requires("entities"),
			requires("word2vec"),
			requires("entity-graph", "entities", "click-graph", "word2vec"),
			requires("parallel-hac", "entity-graph"),
			requires("taxonomy", "parallel-hac"),
			requires("describe", "taxonomy"),
			requires("category-correlation", "taxonomy"),
			requires("search-index", "describe"),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Execute(context.Background(), &Build{}, 0); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 9 {
			t.Fatalf("ran %d stages, want 9", len(seen))
		}
	}
}
