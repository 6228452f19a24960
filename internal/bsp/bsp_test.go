package bsp

import (
	"sync/atomic"
	"testing"
)

// maxProg propagates the maximum seen value along a ring of n vertices.
// After enough supersteps every vertex knows the global max. It only
// sends when its value changed (the frontier contract), so converged
// regions go quiet and the run terminates by vote-to-halt.
type maxProg struct {
	n    int
	best []int64 // per-vertex current max; indexed by vertex id
}

func (p *maxProg) Compute(step int, v VertexID, inbox []int64, out *Outbox[int64]) bool {
	changed := step == 0
	for _, m := range inbox {
		if m > p.best[v] {
			p.best[v] = m
			changed = true
		}
	}
	if changed {
		next := VertexID((int(v) + 1) % p.n)
		prev := VertexID((int(v) - 1 + p.n) % p.n)
		out.Send(next, p.best[v])
		out.Send(prev, p.best[v])
		return false
	}
	return true
}

// combMaxProg is maxProg with the sender-side max combiner enabled.
type combMaxProg struct{ maxProg }

func (p *combMaxProg) Combine(acc, m int64) int64 {
	if m > acc {
		return m
	}
	return acc
}

func newMaxProg(n int) *maxProg {
	p := &maxProg{n: n, best: make([]int64, n)}
	for i := range p.best {
		p.best[i] = int64((i * 7919) % 104729) // deterministic pseudo-random values
	}
	return p
}

func ringMax(t *testing.T, n, workers int, chaos *Chaos) (*maxProg, *Stats) {
	t.Helper()
	p := newMaxProg(n)
	eng, err := New[int64](n, p, Config{Workers: workers, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return p, stats
}

func globalMax(vals []int64) int64 {
	m := vals[0]
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

func TestRingMaxConverges(t *testing.T) {
	p, stats := ringMax(t, 50, 4, nil)
	want := globalMax(p.best)
	for v, got := range p.best {
		if got != want {
			t.Fatalf("vertex %d converged to %d, want %d", v, got, want)
		}
	}
	if stats.Supersteps == 0 || stats.Messages == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.Sends != stats.Messages+stats.CombinerHits {
		t.Fatalf("send accounting broken: %+v", stats)
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	p1, _ := ringMax(t, 37, 1, nil)
	for _, w := range []int{2, 3, 8} {
		pw, _ := ringMax(t, 37, w, nil)
		for v := range p1.best {
			if p1.best[v] != pw.best[v] {
				t.Fatalf("vertex %d: workers=1 gives %d, workers=%d gives %d", v, p1.best[v], w, pw.best[v])
			}
		}
	}
}

// An explicit Bounds placement must give the same fixed point as the
// engine's uniform split.
func TestPlanPlacementInvariance(t *testing.T) {
	p1, _ := ringMax(t, 41, 1, nil)
	// Uneven ranges, one of them empty.
	for _, bounds := range [][]int32{{0, 7, 41}, {0, 3, 30, 41}, {0, 1, 9, 9, 22, 40, 41}} {
		shards := len(bounds) - 1
		p := newMaxProg(41)
		eng, err := New[int64](41, p, Config{Bounds: bounds})
		if err != nil {
			t.Fatal(err)
		}
		if eng.S != shards {
			t.Fatalf("engine runs %d shards, want %d", eng.S, shards)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for v := range p1.best {
			if p1.best[v] != p.best[v] {
				t.Fatalf("plan shards=%d vertex %d: %d, want %d", shards, v, p.best[v], p1.best[v])
			}
		}
	}
}

func TestChaosInvariance(t *testing.T) {
	// Max-propagation is order-independent, so chaotic delivery — both
	// shuffled per-vertex order and stalled source batches — must not
	// change the fixed point.
	plain, _ := ringMax(t, 41, 4, nil)
	for seed := uint64(1); seed <= 3; seed++ {
		for _, chaos := range []*Chaos{
			{Seed: seed, ShuffleInbox: true},
			{Seed: seed, StallBatches: true},
			{Seed: seed, ShuffleInbox: true, StallBatches: true},
		} {
			chaotic, _ := ringMax(t, 41, 4, chaos)
			for v := range plain.best {
				if plain.best[v] != chaotic.best[v] {
					t.Fatalf("seed %d chaos %+v vertex %d: result %d -> %d",
						seed, chaos, v, plain.best[v], chaotic.best[v])
				}
			}
		}
	}
}

// The sender-side combiner must not change the fixed point, must absorb
// traffic, and must stay correct under chaos.
func TestCombinerInvariance(t *testing.T) {
	plain, base := ringMax(t, 53, 4, nil)
	p := &combMaxProg{*newMaxProg(53)}
	eng, err := New[int64](53, p, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.best {
		if plain.best[v] != p.best[v] {
			t.Fatalf("vertex %d: combiner changed result %d -> %d", v, plain.best[v], p.best[v])
		}
	}
	if stats.CombinerHits == 0 {
		t.Fatal("combiner absorbed no sends on a ring with shared destinations")
	}
	if stats.Messages >= base.Messages {
		t.Fatalf("combiner did not cut traffic: %d vs %d delivered", stats.Messages, base.Messages)
	}
	if stats.Sends != base.Sends {
		t.Fatalf("combining changed the send count: %d vs %d", stats.Sends, base.Sends)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		pc := &combMaxProg{*newMaxProg(53)}
		eng, err := New[int64](53, pc, Config{Workers: 3, Chaos: &Chaos{Seed: seed, ShuffleInbox: true, StallBatches: true}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for v := range plain.best {
			if plain.best[v] != pc.best[v] {
				t.Fatalf("seed %d vertex %d: chaos+combiner changed result", seed, v)
			}
		}
	}
}

// Vote-to-halt must make converged regions go quiet: the active count
// per superstep shrinks and the last supersteps carry few messages.
func TestVoteToHaltQuiesces(t *testing.T) {
	_, stats := ringMax(t, 64, 4, nil)
	last := stats.ActivePerStep[len(stats.ActivePerStep)-1]
	if last >= 64 {
		t.Fatalf("final superstep still computed every vertex: %v", stats.ActivePerStep)
	}
	full := int64(0)
	for _, a := range stats.ActivePerStep {
		full += int64(a) * 2 // every computed vertex sending both ways
	}
	if stats.Sends >= int64(len(stats.ActivePerStep))*64*2 {
		t.Fatalf("no send was suppressed: sends=%d supersteps=%d", stats.Sends, stats.Supersteps)
	}
	if stats.Sends != full {
		// Every vertex that computes either changed (2 sends) or halts
		// (0 sends); halting vertices are re-computed only on message
		// receipt, so sends < 2*computed is expected — just sanity-check
		// the accounting is not wildly off.
		if stats.Sends > full {
			t.Fatalf("sends %d exceed 2*computed %d", stats.Sends, full)
		}
	}
}

// echoProg checks the inbox delivery order is canonical (sorted by sender).
type echoProg struct {
	n        int
	violated atomic.Bool
}

func (p *echoProg) Compute(step int, v VertexID, inbox []int64, out *Outbox[int64]) bool {
	switch step {
	case 0:
		// Everyone messages vertex 0, twice, payload = sender*10+seq.
		out.Send(0, int64(v)*10)
		out.Send(0, int64(v)*10+1)
		return true
	case 1:
		if v == 0 {
			if len(inbox) != 2*p.n {
				p.violated.Store(true)
			}
			for i := 1; i < len(inbox); i++ {
				if inbox[i] <= inbox[i-1] {
					p.violated.Store(true)
				}
			}
		}
		return true
	}
	return true
}

func TestCanonicalDeliveryOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 4, 9} {
		p := &echoProg{n: 9}
		eng, err := New[int64](9, p, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if p.violated.Load() {
			t.Fatalf("workers=%d: inbox was not delivered in (sender, seq) order", workers)
		}
	}
}

// haltProg halts immediately; the engine must terminate after one step.
type haltProg struct{}

func (haltProg) Compute(step int, v VertexID, inbox []struct{}, out *Outbox[struct{}]) bool {
	return true
}

func TestImmediateHalt(t *testing.T) {
	eng, err := New[struct{}](10, haltProg{}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 1 {
		t.Fatalf("supersteps = %d, want 1", stats.Supersteps)
	}
	if len(stats.ActivePerStep) != 1 || stats.ActivePerStep[0] != 10 {
		t.Fatalf("ActivePerStep = %v, want [10]", stats.ActivePerStep)
	}
}

// reactivateProg: vertex 0 halts but is reactivated by a message from 1.
type reactivateProg struct {
	wokeAt int32
}

func (p *reactivateProg) Compute(step int, v VertexID, inbox []int64, out *Outbox[int64]) bool {
	if v == 0 {
		if step > 0 && len(inbox) > 0 {
			atomic.StoreInt32(&p.wokeAt, int32(step))
		}
		return true // always votes to halt
	}
	if v == 1 && step == 2 {
		out.Send(0, 99)
	}
	return step >= 3
}

func TestMessageReactivatesHaltedVertex(t *testing.T) {
	p := &reactivateProg{}
	eng, err := New[int64](2, p, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if p.wokeAt != 3 {
		t.Fatalf("vertex 0 woke at step %d, want 3", p.wokeAt)
	}
}

// badProg sends to an out-of-range vertex.
type badProg struct{}

func (badProg) Compute(step int, v VertexID, inbox []int64, out *Outbox[int64]) bool {
	out.Send(10_000, 1)
	return true
}

func TestOutOfRangeSendFails(t *testing.T) {
	eng, err := New[int64](3, badProg{}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("Run() = nil error, want out-of-range send error")
	}
}

// spinProg never halts; MaxSupersteps must abort it.
type spinProg struct{}

func (spinProg) Compute(step int, v VertexID, inbox []int64, out *Outbox[int64]) bool {
	return false
}

func TestMaxSuperstepsAborts(t *testing.T) {
	for _, workers := range []int{1, 2} {
		eng, err := New[int64](3, spinProg{}, Config{Workers: workers, MaxSupersteps: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err == nil {
			t.Fatal("Run() = nil error, want max-supersteps error")
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int64](0, spinProg{}, Config{}); err == nil {
		t.Fatal("New(n=0) accepted")
	}
	if _, err := New[int64](3, nil, Config{}); err == nil {
		t.Fatal("New(nil program) accepted")
	}
	// Workers > n is clamped, not an error.
	eng, err := New[int64](2, spinProg{}, Config{Workers: 64, MaxSupersteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.S != 2 {
		t.Fatalf("shards = %d, want clamped to 2", eng.S)
	}
	// Bounds that do not cover the vertex range, or do not ascend, are
	// rejected.
	for _, bounds := range [][]int32{{0, 2, 5}, {1, 5, 10}, {0, 7, 4, 10}, {0}} {
		if _, err := New[int64](10, spinProg{}, Config{Bounds: bounds}); err == nil {
			t.Fatalf("bounds %v accepted", bounds)
		}
	}
}

// pulseProg keeps a fixed message volume flowing for exactly `steps`
// supersteps: every vertex forwards one message around the ring.
type pulseProg struct {
	n, steps int
}

func (p *pulseProg) Compute(step int, v VertexID, inbox []int64, out *Outbox[int64]) bool {
	if step < p.steps {
		out.Send(VertexID((int(v)+1)%p.n), int64(step))
		return false
	}
	return true
}

// combPulseProg is pulseProg with a sender-side combiner, so a warmed
// run exercises the sparse combiner scratch (inbox accumulators,
// generation stamps, touched worklists) instead of the CSR layout.
type combPulseProg struct{ pulseProg }

func (p *combPulseProg) Combine(acc, m int64) int64 {
	if m > acc {
		return m
	}
	return acc
}

// TestSteadyStateAllocFree pins the engine's allocation contract: once
// an engine's buffers have grown (one warmup run), a subsequent run
// allocates no message-buffer memory per superstep — with or without a
// combiner — so the allocation count of a warmed run must not scale
// with its superstep count (the few remaining allocations are the Stats
// value itself).
func TestSteadyStateAllocFree(t *testing.T) {
	measure := func(steps int, combine bool) float64 {
		var prog Program[int64]
		if combine {
			prog = &combPulseProg{pulseProg{n: 32, steps: steps}}
		} else {
			prog = &pulseProg{n: 32, steps: steps}
		}
		eng, err := New[int64](32, prog, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil { // warmup: grow every buffer
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name    string
		combine bool
	}{
		{"messages", false},
		{"combiner", true},
	} {
		short, long := measure(16, tc.combine), measure(256, tc.combine)
		// 240 extra supersteps may only add the O(log) Stats.ActivePerStep
		// growth, never per-superstep message-buffer or combiner allocations.
		if long > short+8 {
			t.Errorf("%s: allocations scale with supersteps: %d steps -> %.0f allocs, %d steps -> %.0f allocs",
				tc.name, 16, short, 256, long)
		}
	}
}

// staleProg drives the mailbox-drain regression: in failing mode,
// shard 0's vertices send cross-shard and then shard 1 errors before the
// fill phase, stranding shard 0's batches in the mailbox. A later
// well-behaved run must never see them.
type staleProg struct {
	fail    bool
	phantom atomic.Bool
}

func (p *staleProg) Compute(step int, v VertexID, inbox []int64, out *Outbox[int64]) bool {
	if step >= 1 && len(inbox) > 0 {
		p.phantom.Store(true)
	}
	if p.fail && step == 0 {
		out.Send(VertexID((int(v)+2)%4), int64(v)) // cross-shard with workers=2
		if v == 3 {
			out.Send(9999, 0) // shard 1 aborts after shard 0 already sent
		}
		return false
	}
	return true
}

// An aborted run must not leave batches in the mailbox for the next
// run to deliver as phantom messages.
func TestAbortedRunLeavesNoStaleBatches(t *testing.T) {
	p := &staleProg{fail: true}
	eng, err := New[int64](4, p, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("failing run succeeded")
	}
	p.fail = false
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p.phantom.Load() {
		t.Fatal("stale batches from the aborted run were delivered")
	}
	if stats.Messages != 0 {
		t.Fatalf("clean run delivered %d messages, want 0", stats.Messages)
	}
}

// Run must be repeatable on one engine (buffers are reused, state reset)
// until Close, which is idempotent and final.
func TestRunReusable(t *testing.T) {
	p := &pulseProg{n: 16, steps: 8}
	eng, err := New[int64](16, p, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Supersteps != s2.Supersteps || s1.Messages != s2.Messages {
		t.Fatalf("repeated runs differ: %+v vs %+v", s1, s2)
	}
	eng.Close()
	eng.Close()
	if _, err := eng.Run(); err == nil {
		t.Fatal("Run accepted a closed engine")
	}
}
