// Package bsp implements a Pregel-style vertex-centric bulk-synchronous
// parallel engine. The paper runs Parallel HAC "on the Alibaba distributed
// graph platform (ODPS)"; this engine is the in-process stand-in
// (DESIGN.md §1.3), kept for experiment E9 — the diffusion protocol as a
// vertex program, proven byte-identical to phac.Diffuse — and imported by
// internal/experiments only: no product build runs it. Vertices are
// partitioned into contiguous row-range shards (Config.Bounds is the
// placement), compute proceeds in supersteps separated by barriers, and
// messages produced in superstep s are delivered at superstep s+1.
//
// Execution model:
//
//   - Lifecycle: New → Run* → Close. Workers, channels, inbox
//     accumulators and combiner scratch survive across Runs.
//   - Placement: Config.Bounds (or a uniform split into Config.Workers
//     ranges) assigns each shard's contiguous vertex rows to one worker.
//     One persistent goroutine per shard, spawned on the first Run and
//     retired by Close; workers are driven over channels, so steady-state
//     supersteps (and steady-state Runs) spawn nothing.
//   - Worklists: each worker tracks the vertices that declined to halt
//     and each inbox tracks the rows that received messages, both as
//     sorted generation-stamped lists, so a superstep visits only the
//     union of the two frontiers — O(frontier), not O(rows). When the
//     frontier covers most of a shard the fill skips the worklist sort
//     and the next compute scans the row range by generation stamp
//     instead (same ascending visit order, cheaper than sorting).
//     Superstep 0 visits every row (all vertices start active).
//   - Message layout: for combining programs the inbox is a per-row
//     accumulator — messages fold into acc[row] on arrival and Compute
//     receives the single folded message — double-buffered across
//     supersteps with epoch stamps instead of clears. Non-combining
//     programs get the CSR-style flat layout (contiguous message array
//     plus per-row segments) rebuilt per superstep from the touched rows
//     only. Either way steady-state supersteps allocate no message-buffer
//     memory at all (locked by TestSteadyStateAllocFree).
//   - Delivery: each worker batches its outgoing messages per
//     (source shard, dest shard) pair and leaves them in the engine's
//     mailbox matrix at the superstep barrier, by reference. A
//     single-shard engine running a combining program skips envelopes
//     and mailbox entirely: sends fold straight into the next superstep's
//     accumulator, which is the same fold the two-stage path computes.
//   - Determinism: each worker owns an ascending contiguous vertex range
//     and emits messages in (vertex, send order); destination shards fold
//     or fill their inboxes from source batches in ascending source-shard
//     order. The result is the canonical (sender, seq) order — no
//     per-vertex sort anywhere. Chaos mode deliberately breaks this order
//     instead; programs whose results must not depend on delivery order
//     (like Parallel HAC's max-diffusion) are tested under chaos.
//   - Combining: a Program that also implements Combiner[M] opts into
//     message folding — at the sender, messages addressed to the same
//     destination vertex within one shard's superstep fold into a single
//     envelope (tracked by an epoch-stamped sparse index sized to the
//     destinations actually touched, not O(n)); at the receiver, the
//     per-source envelopes fold into the row accumulator. Both folds are
//     left folds in canonical order, so an associative combiner keeps the
//     engine deterministic.
//   - Vote-to-halt: a vertex that returns halt stops being scheduled
//     until a message arrives for it; the run ends when every vertex has
//     halted and no messages are in flight. Converged regions therefore
//     stop computing and sending entirely — the BSP mirror of
//     phac.Diffuse's frontier pruning.
package bsp

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
)

// VertexID identifies a vertex; ids are dense 0..N-1.
type VertexID int32

// denseTouchedDiv: a fill phase leaves its touched worklist unsorted
// ("dense mode") when more than 1/denseTouchedDiv of the shard's rows
// received messages — past that point an O(rows) generation-stamp scan
// in the next compute phase is cheaper than the O(t log t) worklist
// sort, and both visit rows in the same ascending (canonical) order.
const denseTouchedDiv = 8

// Program is the vertex computation. Compute runs once per eligible
// vertex per superstep. A vertex is eligible at superstep 0, and
// thereafter iff it received messages or declined to halt last time it
// ran.
type Program[M any] interface {
	// Compute processes vertex v at the given superstep. inbox holds the
	// messages sent to v during the previous superstep; the slice aliases
	// the engine's reused message buffers and is only valid for the
	// duration of the call — copy any payloads that must outlive it.
	// out.Send enqueues a message for delivery next superstep. Returning
	// true votes to halt; an incoming message reactivates the vertex.
	Compute(superstep int, v VertexID, inbox []M, out *Outbox[M]) (halt bool)
}

// Combiner is an optional Program upgrade: when the program implements
// it, the engine folds messages addressed to the same destination vertex
// — at the sender side (one folded envelope per source shard per
// destination) and again on arrival, so Compute sees a single combined
// message. Combine must be associative, and the program must not depend
// on message multiplicity — the engine may deliver one combined message
// where n were sent.
type Combiner[M any] interface {
	Combine(acc, m M) M
}

// Config controls engine execution.
type Config struct {
	// Workers is the number of shards (= worker goroutines) when no
	// Bounds are given; 0 means GOMAXPROCS. Clamped to the vertex count.
	Workers int
	// Bounds, when non-empty, is the row-range placement: shard i's
	// worker owns vertices [Bounds[i], Bounds[i+1]). The bounds must
	// ascend and cover [0, n) exactly (an empty shard is fine). Workers
	// is ignored when bounds are supplied; the slice is only read.
	Bounds []int32
	// MaxSupersteps aborts runs that fail to converge; 0 means 1<<20.
	MaxSupersteps int
	// Chaos, when non-nil, enables failure injection.
	Chaos *Chaos
}

// Chaos injects distribution pathologies that a correct BSP program must
// tolerate: shuffled message delivery order and stalled (but eventually
// delivered) batches within a superstep boundary.
type Chaos struct {
	// Seed drives the shuffling.
	Seed uint64
	// ShuffleInbox randomizes per-vertex message order instead of the
	// canonical (sender, seq) order. Combining programs receive a single
	// folded message, so their delivery-order chaos comes from
	// StallBatches scrambling the arrival fold order instead.
	ShuffleInbox bool
	// StallBatches delivers each destination's source-shard batches in a
	// random order within the barrier — emulating cross-host batches
	// arriving late — instead of ascending source order.
	StallBatches bool
}

// Stats reports one run's execution profile.
type Stats struct {
	Supersteps int
	// Messages is the total number of envelopes delivered (after any
	// sender-side combining).
	Messages int64
	// Sends is the total number of send() calls programs issued.
	Sends int64
	// CombinerHits counts sends folded into an existing envelope by the
	// sender-side combiner (Sends - CombinerHits envelopes were shipped).
	CombinerHits int64
	// ActivePerStep is the number of vertices computed per superstep.
	ActivePerStep []int
}

// inboxBuf is one shard's inbox for one superstep generation. rowGen
// stamps replace clears: row r holds messages iff rowGen[r] == gen, and
// touched lists those rows (ascending once sealed by the fill phase).
// Combining programs use the folded layout (acc[r] is the single
// combined message); others the CSR layout (msgs[start[r]:start[r]+
// cnt[r]] in canonical order). Two generations per shard alternate
// across supersteps.
type inboxBuf[M any] struct {
	gen     uint32   // engine generation this buffer was filled for; 0 = empty
	dense   bool     // touched covers most rows: left unsorted, compute scans the range
	touched []int32  // global row ids with messages, ascending after seal
	rowGen  []uint32 // local row -> generation it last received messages
	acc     []M      // folded layout: one combined message per local row
	// CSR layout (non-combining programs):
	start []int32
	cnt   []int32
	cur   []int32
	msgs  []M
}

// workerState is one shard worker's mutable state.
type workerState[M any] struct {
	ob Outbox[M]
	// actCur lists the shard's vertices that declined to halt last
	// superstep, ascending; actNext is the swap buffer being built.
	actCur  []int32
	actNext []int32

	computed  int
	delivered int64
}

// Outbox is the per-worker send surface handed to Program.Compute:
// destination validation, sender-side combining, and either direct
// accumulator folding (single shard + combiner) or per-(source, dest)
// envelope batching.
type Outbox[M any] struct {
	n    int32
	comb Combiner[M]

	// Fast path (single-shard engine running a combining program): sends
	// fold straight into the next superstep's inbox accumulator — no
	// envelopes, no transport. Emission order is the canonical delivery
	// order when there is only one source shard, so the fold is
	// byte-identical to the batch path's two-stage fold.
	acc     []M
	rowGen  []uint32
	touched []int32
	gen     uint32

	// Batch path: owner routes destinations to shards (nil means a
	// single shard), ci is the epoch-stamped sparse combiner index.
	owner []int32
	out   [][]envelope[M]
	ci    combIndex

	err         error
	sends, hits int64
}

// Send enqueues a message for delivery to vertex `to` next superstep.
func (o *Outbox[M]) Send(to VertexID, m M) {
	t := int32(to)
	if uint32(t) >= uint32(o.n) {
		if o.err == nil {
			o.err = fmt.Errorf("bsp: sent to out-of-range vertex %d", to)
		}
		return
	}
	o.sends++
	if o.acc != nil {
		if o.rowGen[t] == o.gen {
			o.acc[t] = o.comb.Combine(o.acc[t], m)
			o.hits++
			return
		}
		o.rowGen[t] = o.gen
		o.acc[t] = m
		o.touched = append(o.touched, t)
		return
	}
	var d int32
	if o.owner != nil {
		d = o.owner[t]
	}
	if o.comb != nil {
		if i, ok := o.ci.slot(t, int32(len(o.out[d]))); ok {
			b := o.out[d]
			b[i].Msg = o.comb.Combine(b[i].Msg, m)
			o.hits++
			return
		}
	}
	o.out[d] = append(o.out[d], envelope[M]{To: to, Msg: m})
}

// SendMany sends m to every vertex id in to, in order — the broadcast
// form of Send for fan-out programs (one call per vertex instead of one
// per edge). Semantically identical to calling Send(id, m) for each id;
// on the single-shard fast path the per-send bookkeeping is hoisted out
// of the loop, which is a measurable win at one send per adjacency
// entry.
func (o *Outbox[M]) SendMany(to []int32, m M) {
	if o.acc == nil {
		for _, t := range to {
			o.Send(VertexID(t), m)
		}
		return
	}
	gen, acc, rowGen, comb := o.gen, o.acc, o.rowGen, o.comb
	n, touched := o.n, o.touched
	var sends, hits int64
	for _, t := range to {
		if uint32(t) >= uint32(n) {
			if o.err == nil {
				o.err = fmt.Errorf("bsp: sent to out-of-range vertex %d", t)
			}
			continue
		}
		sends++
		if rowGen[t] == gen {
			acc[t] = comb.Combine(acc[t], m)
			hits++
			continue
		}
		rowGen[t] = gen
		acc[t] = m
		touched = append(touched, t)
	}
	o.touched = touched
	o.sends += sends
	o.hits += hits
}

// combIndex is the sender-side combiner's destination index: open
// addressing with epoch stamps, so a superstep boundary is one counter
// bump instead of an O(n) clear, and capacity tracks the destinations a
// superstep actually touches instead of the vertex count. Doubles by
// rehashing the live epoch's entries when half full; steady-state
// supersteps allocate nothing once capacity has grown.
type combIndex struct {
	keys  []int32
	idxs  []int32
	eps   []uint32
	epoch uint32
	shift uint32
	live  int
}

func (c *combIndex) init(pow uint32) {
	c.keys = make([]int32, 1<<pow)
	c.idxs = make([]int32, 1<<pow)
	c.eps = make([]uint32, 1<<pow)
	c.shift = 32 - pow
}

func (c *combIndex) nextEpoch() {
	c.epoch++
	c.live = 0
}

// slot probes for key. Found: returns its stored batch index and true.
// Absent: records ins as key's batch index and returns false.
func (c *combIndex) slot(key, ins int32) (int32, bool) {
	mask := uint32(len(c.keys) - 1)
	h := (uint32(key) * 2654435769) >> c.shift
	for {
		if c.eps[h] != c.epoch {
			c.eps[h] = c.epoch
			c.keys[h] = key
			c.idxs[h] = ins
			c.live++
			if c.live*2 >= len(c.keys) {
				c.grow()
			}
			return 0, false
		}
		if c.keys[h] == key {
			return c.idxs[h], true
		}
		h = (h + 1) & mask
	}
}

// grow doubles the table, reinserting only the current epoch's entries.
func (c *combIndex) grow() {
	keys, idxs, eps, epoch := c.keys, c.idxs, c.eps, c.epoch
	c.init(33 - c.shift)
	// Fresh stamps are zero and the live epoch is >= 1 (nextEpoch runs
	// before any slot call), so the new table reads as empty.
	mask := uint32(len(c.keys) - 1)
	for i := range keys {
		if eps[i] != epoch {
			continue
		}
		h := (uint32(keys[i]) * 2654435769) >> c.shift
		for c.eps[h] == epoch {
			h = (h + 1) & mask
		}
		c.eps[h] = epoch
		c.keys[h] = keys[i]
		c.idxs[h] = idxs[i]
	}
}

// Engine executes a Program over a fixed set of vertices. Run may be
// called repeatedly; Close retires the workers.
type Engine[M any] struct {
	n    int
	prog Program[M]
	comb Combiner[M]
	cfg  Config
	mail mailbox[M]

	bounds []int32 // shard row bounds, len S+1
	S      int
	owner  []int32 // vertex -> owning shard; nil when single-sharded

	initialized bool
	closed      bool
	fast        bool // single shard + combiner: fold sends directly
	ws          []workerState[M]
	in, nxt     []inboxBuf[M]
	cmds        []chan wcmd
	done        chan struct{}
	gen         uint32 // inbox generation, monotonic across Runs
}

// wcmd drives a persistent shard worker through one phase.
type wcmd struct {
	step int32
	kind int8 // 0 compute+send, 1 recv+fill
}

// New creates an engine over n vertices. The topology lives inside the
// program (vertices send to whichever ids they know); the engine only
// validates destinations and owns placement, transport and delivery.
func New[M any](n int, prog Program[M], cfg Config) (*Engine[M], error) {
	if n <= 0 {
		return nil, errors.New("bsp: vertex count must be positive")
	}
	if prog == nil {
		return nil, errors.New("bsp: nil program")
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 1 << 20
	}
	bounds := cfg.Bounds
	if len(bounds) > 0 {
		S := len(bounds) - 1
		for i := 0; i < S; i++ {
			if bounds[i] > bounds[i+1] {
				return nil, fmt.Errorf("bsp: shard %d has inverted bounds [%d,%d)", i, bounds[i], bounds[i+1])
			}
		}
		if S == 0 || bounds[0] != 0 || int(bounds[S]) != n {
			return nil, fmt.Errorf("bsp: bounds cover [%d,%d), want [0,%d)", bounds[0], bounds[S], n)
		}
	} else {
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w > n {
			w = n
		}
		bounds = make([]int32, w+1)
		for i := 0; i <= w; i++ {
			bounds[i] = int32(i * n / w)
		}
	}
	e := &Engine[M]{n: n, prog: prog, cfg: cfg, bounds: bounds, S: len(bounds) - 1}
	e.comb, _ = prog.(Combiner[M])
	return e, nil
}

// Close retires the persistent shard workers. The engine cannot Run
// afterwards. Safe to call more than once; single-shard engines
// have no goroutines and Close is then a pure marker.
func (e *Engine[M]) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, c := range e.cmds {
		close(c)
	}
	e.cmds = nil
}

// init allocates the reusable engine state and spawns the persistent
// workers on first Run.
func (e *Engine[M]) init() {
	if e.initialized {
		return
	}
	e.initialized = true
	e.mail = newMailbox[M](e.S)
	e.fast = e.comb != nil && e.S == 1
	if e.S > 1 {
		e.owner = make([]int32, e.n)
		for s := 0; s < e.S; s++ {
			for v := e.bounds[s]; v < e.bounds[s+1]; v++ {
				e.owner[v] = int32(s)
			}
		}
	}
	e.ws = make([]workerState[M], e.S)
	e.in = make([]inboxBuf[M], e.S)
	e.nxt = make([]inboxBuf[M], e.S)
	for s := 0; s < e.S; s++ {
		rows := int(e.bounds[s+1] - e.bounds[s])
		for _, b := range [2]*inboxBuf[M]{&e.in[s], &e.nxt[s]} {
			b.rowGen = make([]uint32, rows)
			if e.comb != nil {
				b.acc = make([]M, rows)
			} else {
				b.start = make([]int32, rows)
				b.cnt = make([]int32, rows)
				b.cur = make([]int32, rows)
			}
		}
		ob := &e.ws[s].ob
		ob.n = int32(e.n)
		ob.comb = e.comb
		ob.owner = e.owner
		ob.out = make([][]envelope[M], e.S)
		if e.comb != nil && !e.fast {
			ob.ci.init(8)
		}
	}
	if e.S > 1 {
		e.cmds = make([]chan wcmd, e.S)
		e.done = make(chan struct{}, e.S)
		for s := 0; s < e.S; s++ {
			e.cmds[s] = make(chan wcmd, 1)
			go e.worker(s, e.cmds[s])
		}
	}
}

// Run executes supersteps until every vertex halts with no messages in
// flight, or MaxSupersteps is exceeded (an error). Run may be called
// repeatedly; the engine reuses its buffers, so steady-state supersteps
// — message layout, worklists and combiner scratch included — are
// allocation-free once capacities have grown.
func (e *Engine[M]) Run() (*Stats, error) {
	if e.closed {
		return nil, errors.New("bsp: engine is closed")
	}
	e.init()
	for s := 0; s < e.S; s++ {
		ws := &e.ws[s]
		ws.ob.err, ws.ob.sends, ws.ob.hits = nil, 0, 0
		ws.actCur = ws.actCur[:0]
		// Mark both inbox generations empty (gen 0 never matches a
		// stamp: the engine generation is bumped before first use).
		e.in[s].gen, e.nxt[s].gen = 0, 0
		// A previous Run that aborted between its send and fill phases
		// may have left undelivered batches in the mailbox; drain them
		// so they cannot surface as phantom superstep-0 messages.
		e.mail.recv(s)
	}
	activeCnt := e.n // superstep 0 computes every vertex
	pending := int64(0)

	stats := &Stats{}
	for step := 0; ; step++ {
		if activeCnt == 0 && pending == 0 {
			break
		}
		if step >= e.cfg.MaxSupersteps {
			return stats, fmt.Errorf("bsp: exceeded %d supersteps without converging", e.cfg.MaxSupersteps)
		}
		e.gen++
		e.phase(wcmd{step: int32(step), kind: 0})
		for s := 0; s < e.S; s++ {
			if err := e.ws[s].ob.err; err != nil {
				return stats, err
			}
		}
		e.phase(wcmd{step: int32(step), kind: 1})
		var delivered int64
		computed := 0
		activeCnt = 0
		for s := 0; s < e.S; s++ {
			ws := &e.ws[s]
			if ws.ob.err != nil {
				return stats, ws.ob.err
			}
			delivered += ws.delivered
			computed += ws.computed
			activeCnt += len(ws.actCur)
		}
		e.in, e.nxt = e.nxt, e.in
		pending = delivered
		stats.Messages += delivered
		stats.ActivePerStep = append(stats.ActivePerStep, computed)
		stats.Supersteps++
	}
	for s := 0; s < e.S; s++ {
		stats.Sends += e.ws[s].ob.sends
		stats.CombinerHits += e.ws[s].ob.hits
	}
	return stats, nil
}

// phase runs one barrier-delimited phase on every shard — inline when
// single-sharded, via the persistent workers otherwise.
func (e *Engine[M]) phase(c wcmd) {
	if e.S == 1 {
		e.runPhase(0, c)
		return
	}
	for s := 0; s < e.S; s++ {
		e.cmds[s] <- c
	}
	for s := 0; s < e.S; s++ {
		<-e.done
	}
}

// worker is the persistent goroutine driving shard s, one phase per
// command. It is spawned once on the first Run and exits when Close
// closes the command channel. The channel is passed in rather than read
// from e.cmds, which Close nils out — possibly before a worker spawned
// by a run that never reached a phase gets scheduled at all.
func (e *Engine[M]) worker(s int, cmds <-chan wcmd) {
	for c := range cmds {
		e.runPhase(s, c)
		e.done <- struct{}{}
	}
}

func (e *Engine[M]) runPhase(s int, c wcmd) {
	if c.kind == 0 {
		e.computeShard(s, int(c.step))
	} else {
		e.fillShard(s, int(c.step))
	}
}

// computeShard runs the superstep's compute over shard s's eligible rows
// and leaves the resulting per-destination batches in the mailbox (the
// fast path folded its sends directly and ships nothing). Superstep 0
// visits every row; later supersteps visit the sorted merge of the
// active worklist and the inbox's touched rows — O(frontier) — still in
// ascending row order, so the shard's emission stream stays in canonical
// (sender, seq) order by construction.
func (e *Engine[M]) computeShard(s, step int) {
	ws := &e.ws[s]
	ob := &ws.ob
	if e.fast {
		nb := &e.nxt[s]
		nb.gen = e.gen
		ob.gen = e.gen
		ob.acc = nb.acc
		ob.rowGen = nb.rowGen
		ob.touched = nb.touched[:0]
	} else {
		for d := range ob.out {
			ob.out[d] = ob.out[d][:0]
		}
		if ob.comb != nil {
			ob.ci.nextEpoch()
		}
	}
	in := &e.in[s]
	lo, hi := e.bounds[s], e.bounds[s+1]
	chaos := e.cfg.Chaos
	nextAct := ws.actNext[:0]
	folded := ob.comb != nil
	if step == 0 {
		for v := lo; v < hi; v++ {
			if halt := e.prog.Compute(step, VertexID(v), nil, ob); !halt {
				nextAct = append(nextAct, v)
			}
			if ob.err != nil {
				break
			}
		}
		ws.computed = int(hi - lo)
	} else if in.dense {
		// Dense frontier: the fill phase left touched unsorted because
		// most rows received messages; an ascending range scan over the
		// generation stamps (with a pointer walking the sorted active
		// list) recovers the canonical visit order cheaper than sorting.
		act := ws.actCur
		ai, n := 0, 0
		for v := lo; v < hi; v++ {
			for ai < len(act) && act[ai] < v {
				ai++
			}
			hasMsg := in.rowGen[v-lo] == in.gen
			if !hasMsg && !(ai < len(act) && act[ai] == v) {
				continue
			}
			var inbox []M
			if hasMsg {
				if r := v - lo; folded {
					inbox = in.acc[r : r+1 : r+1]
				} else {
					m0 := in.start[r]
					m1 := m0 + in.cnt[r]
					inbox = in.msgs[m0:m1:m1]
				}
			}
			if chaos != nil && chaos.ShuffleInbox && len(inbox) > 1 {
				rng := rand.New(rand.NewPCG(chaos.Seed, uint64(step)<<32|uint64(uint32(v))))
				rng.Shuffle(len(inbox), func(i, j int) { inbox[i], inbox[j] = inbox[j], inbox[i] })
			}
			halt := e.prog.Compute(step, VertexID(v), inbox, ob)
			n++
			if !halt {
				nextAct = append(nextAct, v)
			}
			if ob.err != nil {
				break
			}
		}
		ws.computed = n
	} else {
		act, tch := ws.actCur, in.touched
		i, j, n := 0, 0, 0
		for i < len(act) || j < len(tch) {
			var v int32
			switch {
			case j >= len(tch):
				v = act[i]
				i++
			case i >= len(act):
				v = tch[j]
				j++
			case act[i] < tch[j]:
				v = act[i]
				i++
			case act[i] > tch[j]:
				v = tch[j]
				j++
			default:
				v = act[i]
				i++
				j++
			}
			var inbox []M
			if r := v - lo; in.rowGen[r] == in.gen {
				if folded {
					inbox = in.acc[r : r+1 : r+1]
				} else {
					m0 := in.start[r]
					m1 := m0 + in.cnt[r]
					inbox = in.msgs[m0:m1:m1]
				}
			}
			if chaos != nil && chaos.ShuffleInbox && len(inbox) > 1 {
				rng := rand.New(rand.NewPCG(chaos.Seed, uint64(step)<<32|uint64(uint32(v))))
				rng.Shuffle(len(inbox), func(i, j int) { inbox[i], inbox[j] = inbox[j], inbox[i] })
			}
			halt := e.prog.Compute(step, VertexID(v), inbox, ob)
			n++
			if !halt {
				nextAct = append(nextAct, v)
			}
			if ob.err != nil {
				break
			}
		}
		ws.computed = n
	}
	ws.actNext = ws.actCur
	ws.actCur = nextAct
	if e.fast {
		e.nxt[s].touched = ob.touched
		return
	}
	for d := 0; d < e.S; d++ {
		if len(ob.out[d]) > 0 {
			e.mail.send(s, d, ob.out[d])
		}
	}
}

// fillShard builds shard d's next-superstep inbox from the mailbox's
// batches — folding them into the row accumulator for combining
// programs, or laying them out CSR-style otherwise. Batches arrive in
// ascending source-shard order and envelopes in emission order, so the
// fold (or concatenation) is the canonical (sender, seq) delivery order
// without any sort; only the touched-row worklist is sorted, O(t log t)
// in the rows that actually received messages. All buffers are reused;
// steady-state supersteps allocate nothing here. On the fast path the
// compute phase already folded everything, and sealing is just the
// worklist sort.
func (e *Engine[M]) fillShard(d, step int) {
	ws := &e.ws[d]
	ws.delivered = 0
	nb := &e.nxt[d]
	rows := int(e.bounds[d+1] - e.bounds[d])
	if e.fast {
		nb.dense = len(nb.touched)*denseTouchedDiv > rows
		if !nb.dense {
			slices.Sort(nb.touched)
		}
		ws.delivered = int64(len(nb.touched))
		return
	}
	batches := e.mail.recv(d)
	chaos := e.cfg.Chaos
	if chaos != nil && chaos.StallBatches && len(batches) > 1 {
		rng := rand.New(rand.NewPCG(chaos.Seed^0x57A11ED, uint64(step)<<32|uint64(uint32(d))))
		rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
	}
	gen := e.gen
	nb.gen = gen
	lo := e.bounds[d]
	touched := nb.touched[:0]
	if e.comb != nil {
		var total int64
		for _, bt := range batches {
			total += int64(len(bt))
			for i := range bt {
				r := int32(bt[i].To) - lo
				if nb.rowGen[r] != gen {
					nb.rowGen[r] = gen
					nb.acc[r] = bt[i].Msg
					touched = append(touched, lo+r)
				} else {
					nb.acc[r] = e.comb.Combine(nb.acc[r], bt[i].Msg)
				}
			}
		}
		nb.dense = len(touched)*denseTouchedDiv > rows
		if !nb.dense {
			slices.Sort(touched)
		}
		nb.touched = touched
		ws.delivered = total
		return
	}
	nb.dense = false // CSR layout needs the sorted order below
	total := int32(0)
	for _, bt := range batches {
		total += int32(len(bt))
		for i := range bt {
			r := int32(bt[i].To) - lo
			if nb.rowGen[r] != gen {
				nb.rowGen[r] = gen
				nb.cnt[r] = 0
				touched = append(touched, lo+r)
			}
			nb.cnt[r]++
		}
	}
	slices.Sort(touched)
	pos := int32(0)
	for _, v := range touched {
		r := v - lo
		nb.start[r] = pos
		nb.cur[r] = pos
		pos += nb.cnt[r]
	}
	if cap(nb.msgs) < int(total) {
		nb.msgs = make([]M, total)
	} else {
		nb.msgs = nb.msgs[:total]
	}
	for _, bt := range batches {
		for i := range bt {
			r := int32(bt[i].To) - lo
			nb.msgs[nb.cur[r]] = bt[i].Msg
			nb.cur[r]++
		}
	}
	nb.touched = touched
	ws.delivered = int64(total)
}
