package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"shoal/internal/obs"
)

// Stage is one node of the build graph: a named unit of pipeline work with
// declared dependencies on other stages. A stage reads the Build fields its
// dependencies populated and writes its own; stages with no dependency
// relation run concurrently, so they must touch disjoint fields.
type Stage interface {
	// Name identifies the stage in timings, errors and /api/stats.
	Name() string
	// Deps names the stages that must complete before this one starts.
	Deps() []string
	// Run performs the stage's work. It must honor ctx cancellation.
	Run(ctx context.Context, b *Build) error
}

// StageFunc adapts a closure to a Stage.
func StageFunc(name string, deps []string, run func(ctx context.Context, b *Build) error) Stage {
	return &funcStage{name: name, deps: deps, run: run}
}

type funcStage struct {
	name string
	deps []string
	run  func(ctx context.Context, b *Build) error
}

func (s *funcStage) Name() string                            { return s.name }
func (s *funcStage) Deps() []string                          { return s.deps }
func (s *funcStage) Run(ctx context.Context, b *Build) error { return s.run(ctx, b) }

// Engine executes a validated stage graph: stages run as soon as their
// dependencies complete, concurrently when independent. Execution is
// deterministic in its *outputs* regardless of parallelism because the
// dependency edges encode every read-after-write relation; only wall-clock
// interleaving varies.
type Engine struct {
	stages []Stage
	// deps[i] holds the stage indices stage i waits on; dependents is the
	// reverse adjacency. indegree0 is the initial indegree per stage,
	// copied at the start of every Execute.
	deps       [][]int
	dependents [][]int
	indegree0  []int
}

// NewEngine validates the stage graph: unique names, known dependencies,
// and no cycles. Stage registration order is the deterministic tiebreak
// wherever the engine must pick among ready stages.
func NewEngine(stages ...Stage) (*Engine, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("core: engine needs at least one stage")
	}
	byName := make(map[string]int, len(stages))
	for i, st := range stages {
		if st.Name() == "" {
			return nil, fmt.Errorf("core: stage %d has an empty name", i)
		}
		if _, dup := byName[st.Name()]; dup {
			return nil, fmt.Errorf("core: duplicate stage %q", st.Name())
		}
		byName[st.Name()] = i
	}
	e := &Engine{stages: stages, deps: make([][]int, len(stages))}
	for i, st := range stages {
		for _, d := range st.Deps() {
			j, ok := byName[d]
			if !ok {
				return nil, fmt.Errorf("core: stage %q depends on unknown stage %q", st.Name(), d)
			}
			if j == i {
				return nil, fmt.Errorf("core: stage %q depends on itself", st.Name())
			}
			e.deps[i] = append(e.deps[i], j)
		}
	}
	e.indegree0 = make([]int, len(stages))
	e.dependents = make([][]int, len(stages))
	for i, di := range e.deps {
		e.indegree0[i] = len(di)
		for _, j := range di {
			e.dependents[j] = append(e.dependents[j], i)
		}
	}
	// Cycle check via Kahn's algorithm.
	indegree := slices.Clone(e.indegree0)
	var queue []int
	for i, d := range indegree {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		seen++
		for _, j := range e.dependents[i] {
			if indegree[j]--; indegree[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if seen != len(stages) {
		var stuck []string
		for i, d := range indegree {
			if d > 0 {
				stuck = append(stuck, stages[i].Name())
			}
		}
		return nil, fmt.Errorf("core: stage graph has a dependency cycle through %v", stuck)
	}
	return e, nil
}

// Execute runs the graph over b. maxConcurrent bounds simultaneously
// running stages; <= 0 means unbounded (full graph parallelism), 1 yields
// the deterministic sequential topological order. Returned timings are in
// registration order. On the first stage error the context handed to still
// running stages is canceled, the engine drains them, and the error is
// returned wrapped with the failing stage's name.
func (e *Engine) Execute(ctx context.Context, b *Build, maxConcurrent int) ([]StageTiming, error) {
	if maxConcurrent <= 0 {
		maxConcurrent = len(e.stages)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	indegree := slices.Clone(e.indegree0)

	var ready []int // ascending stage indices
	for i, d := range indegree {
		if d == 0 {
			ready = append(ready, i)
		}
	}

	type outcome struct {
		idx        int
		err        error
		start, end time.Time
	}
	done := make(chan outcome)
	started := time.Now()
	timingAt := make(map[int]StageTiming, len(e.stages))
	running, completed := 0, 0
	var firstErr error

	launch := func(i int) {
		running++
		go func() {
			st := e.stages[i]
			// One trace span per stage; downstream packages hang their
			// own spans (merge rounds) off it via the context.
			sp := b.Trace.StartSpan(st.Name())
			s := time.Now()
			err := ctx.Err()
			if err == nil {
				err = st.Run(obs.ContextWithSpan(ctx, sp), b)
			}
			sp.End()
			done <- outcome{idx: i, err: err, start: s, end: time.Now()}
		}()
	}

	for {
		for firstErr == nil && running < maxConcurrent && len(ready) > 0 {
			i := ready[0]
			ready = ready[1:]
			launch(i)
		}
		if running == 0 {
			break
		}
		o := <-done
		running--
		completed++
		if o.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: stage %s: %w", e.stages[o.idx].Name(), o.err)
				cancel()
			}
			continue
		}
		timingAt[o.idx] = StageTiming{
			Stage:   e.stages[o.idx].Name(),
			Start:   o.start.Sub(started),
			Elapsed: o.end.Sub(o.start),
		}
		for _, j := range e.dependents[o.idx] {
			if indegree[j]--; indegree[j] == 0 {
				ready = slices.Insert(ready, sort.SearchInts(ready, j), j)
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if completed != len(e.stages) {
		// Unreachable after NewEngine's cycle check; guard regardless.
		return nil, fmt.Errorf("core: engine stalled with %d/%d stages complete", completed, len(e.stages))
	}
	timings := make([]StageTiming, 0, len(e.stages))
	for i := range e.stages {
		timings = append(timings, timingAt[i])
	}
	return timings, nil
}
