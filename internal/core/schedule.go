package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"shoal/internal/obs"
)

// forkJoin runs one build's stages on the schedule run writes out: a
// stage's call comes after the calls of the stages it reads have
// returned, and parallel runs calls that share no field. The first stage
// error cancels the shared context, so running stages abort and stages
// called after it do not start.
type forkJoin struct {
	ctx        context.Context
	cancel     context.CancelFunc
	trace      *obs.Trace
	sequential bool
	start      time.Time
	// timings holds one slot per declared stage, in declaration order.
	timings []StageTiming

	mu  sync.Mutex
	err error
}

func newForkJoin(ctx context.Context, trace *obs.Trace, sequential bool) *forkJoin {
	ctx, cancel := context.WithCancel(ctx)
	return &forkJoin{ctx: ctx, cancel: cancel, trace: trace, sequential: sequential, start: time.Now()}
}

// stage declares a stage and returns the call that runs it: fn runs
// under the stage's root span, which downstream packages hang their own
// spans off, and its timing fills the slot the declaration took.
func (fj *forkJoin) stage(name string, fn func(ctx context.Context) error) func() {
	slot := len(fj.timings)
	fj.timings = append(fj.timings, StageTiming{Stage: name})
	return func() {
		if err := fj.ctx.Err(); err != nil {
			fj.fail(name, err)
			return
		}
		sp := fj.trace.StartSpan(name)
		start := time.Now()
		err := fn(obs.ContextWithSpan(fj.ctx, sp))
		sp.End()
		if err != nil {
			fj.fail(name, err)
			return
		}
		fj.timings[slot].Start = start.Sub(fj.start)
		fj.timings[slot].Elapsed = time.Since(start)
	}
}

// fail records the first error, wrapped with its stage's name, and
// cancels the schedule; later errors are the cancellation's echoes.
func (fj *forkJoin) fail(name string, err error) {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	if fj.err == nil {
		fj.err = fmt.Errorf("core: stage %s: %w", name, err)
		fj.cancel()
	}
}

// parallel runs calls concurrently and returns once all have returned;
// under Sequential it runs them one at a time, in order.
func (fj *forkJoin) parallel(calls ...func()) {
	if fj.sequential {
		for _, call := range calls {
			call()
		}
		return
	}
	var wg sync.WaitGroup
	for _, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call()
		}()
	}
	wg.Wait()
}

// wait releases the schedule's context once its last call has returned,
// and reports the timings or the first stage error.
func (fj *forkJoin) wait() ([]StageTiming, error) {
	fj.cancel()
	if fj.err != nil {
		return nil, fj.err
	}
	return fj.timings, nil
}
