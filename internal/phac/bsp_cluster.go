package phac

import (
	"sync/atomic"

	"shoal/internal/bsp"
	"shoal/internal/obs"
)

// clusterDiffusionProgram is one clustering round's diffusion as a BSP
// vertex program over the contracted CSR, memoized across merge rounds
// like the shared-memory path and stopping where it stops: supersteps
// 0 .. r-1 materialize levels 0 .. r-1, and the r-th exchange is
// selectVerified's neighbor pass over the few mutual-best pairs, so the
// widest superstep and its messages never run. It is the in-round twin
// of diffusionProgram — max-combiner, changed-only sends, vote-to-halt
// — plus the round-statistics side outputs (per-id edge counts and best
// incident edge regardless of threshold) that selectLocalMaxima
// computes during its init scan. One program value lives on the state
// and is re-pointed at each round's contracted CSR before the engine
// rebind.
type clusterDiffusionProgram struct {
	offsets   []int32
	deg       []int32 // live row lengths: row u spans offsets[u] .. offsets[u]+deg[u]
	nbrs      []int32
	wts       []float64
	threshold float64
	// lvl aliases st.exStates: lvl[0] is the init state (best incident
	// >= threshold edge) and lvl[s] the state after exchange iteration
	// s, one level per superstep, len(lvl) supersteps per run. Compute at
	// superstep s pulls its inputs from lvl[s-1] — frozen for the whole
	// superstep, since writes go to lvl[s] only — and messages carry no
	// authoritative state, just changed-value pings that reactivate the
	// neighborhood. Pulling keeps the memoized levels correct across
	// rounds: a cross-round decrease (a dominating edge retired by a
	// merge) can never be expressed as a max-folded message, but a
	// recompute over the current adjacency reads right past it.
	lvl     [][]edgeRef
	edgeCnt []int64
	bests   []edgeRef
	// Dirty rows (adjacency touched by the last merge) decline to halt
	// until the final superstep: their input SET changed, so every
	// level must be recomputed even where no input value changed yet.
	dirty      []uint32
	dirtyEpoch uint32
	// bcRows collects the rows whose best incident edge (bests) changed
	// at superstep 0, claimed via atomic cursor (order is
	// scheduling-dependent, the id set is not). The global-best heap
	// pushes only these rows: an unchanged row's existing heap entry is
	// still its current value, so re-pushing it would only pile
	// duplicate entries onto the hot top of the heap.
	bcRows []int32
	bcN    atomic.Int64
}

// Combine is the sender-side max-fold (bsp.Combiner).
func (p *clusterDiffusionProgram) Combine(acc, m edgeRef) edgeRef {
	if better(m, acc) {
		return m
	}
	return acc
}

func (p *clusterDiffusionProgram) Compute(step int, v bsp.VertexID, _ []edgeRef, out *bsp.Outbox[edgeRef]) bool {
	u := int32(v)
	rl := p.offsets[u]
	rh := rl + p.deg[u]
	var next edgeRef
	if step == 0 {
		best, bestAny := noEdge, noEdge
		edges := int64(0)
		for j := rl; j < rh; j++ {
			nb, w := p.nbrs[j], p.wts[j]
			if u < nb {
				edges++
			}
			cand := mkEdgeRef(u, nb, w)
			if better(cand, bestAny) {
				bestAny = cand
			}
			if w < p.threshold {
				continue
			}
			if better(cand, best) {
				best = cand
			}
		}
		p.edgeCnt[u] = edges
		if bestAny != p.bests[u] {
			p.bests[u] = bestAny
			p.bcRows[p.bcN.Add(1)-1] = u
		}
		next = best
	} else {
		src := p.lvl[step-1]
		best := src[u]
		for j := rl; j < rh; j++ {
			if nb := p.nbrs[j]; better(src[nb], best) {
				best = src[nb]
			}
		}
		next = best
	}
	cur := p.lvl[step]
	changed := next != cur[u]
	if changed {
		cur[u] = next
	}
	if step+1 >= len(p.lvl) {
		return true // last level: selection reads it in place, nobody to ping
	}
	if changed {
		out.SendMany(p.nbrs[rl:rh], next)
		return false
	}
	return p.dirty[u] != p.dirtyEpoch
}

// bspBest is a lazy-deletion heap entry for the running global-best
// tracker: bests[u] as of the last superstep 0 that computed row u. An
// entry goes stale when u dies or bests[u] moves on; every recomputed
// row is re-pushed, so the current value of every alive row is always
// present and bspHeapBest pops stale tops until one surfaces.
type bspBest struct {
	e edgeRef
	u int32
}

// bspHeapPush pushes row u's current best incident edge.
func (st *state) bspHeapPush(u int32) {
	h := append(st.bspHeap, bspBest{st.bests[u], u})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !better(h[i].e, h[p].e) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	st.bspHeap = h
}

// bspHeapBest returns the best incident edge over all alive rows,
// popping stale entries off the top. Deterministic even with duplicate
// values: `better` is a total order, so the maximum value is unique.
func (st *state) bspHeapBest() edgeRef {
	h := st.bspHeap
	for len(h) > 0 {
		top := h[0]
		if st.alive[top.u] && st.bests[top.u] == top.e {
			st.bspHeap = h
			return top.e
		}
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && better(h[l].e, h[m].e) {
				m = l
			}
			if r < n && better(h[r].e, h[m].e) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	st.bspHeap = h
	return noEdge
}

// selectLocalMaximaBSP is selectLocalMaxima routed through the BSP
// engine, memoized across merge rounds like the shared path. One engine
// serves the whole clustering: the first round builds it and runs a full
// (all-rows) superstep 0; every later round rebinds it to the contracted
// CSR and seeds superstep 0 with the last merge's alive dirty rows
// (RunFrom), with changed-only pings carrying the ripple outward — so a
// late round costs O(frontier) per superstep, the engine twin of the
// shared path's dirtyList/chList worklists. Round statistics are
// maintained incrementally: a merge retires a known set of rows, so the
// running edge total subtracts exactly the retired and re-seeded rows,
// and the global best comes from a lazy-deletion heap instead of an
// O(alive) rescan. Selection is the shared path's own routine over the
// levels the engine left in st.exStates. Every output stays
// byte-identical to the shared-memory scans (max-exchange over frozen
// levels reaches the same fixed point under any execution order); agg
// accumulates the engine profile across rounds, carrying the lifetime
// reuse counters.
//
// The incremental round statistics assume strict select → merge
// alternation, which is how Cluster drives it: every selected pair is
// retired before the next selection.
func (st *state) selectLocalMaximaBSP(rounds int, threshold float64, agg *bsp.Stats, span *obs.Span) ([]edgeRef, int, float64, error) {
	n := st.total
	st.recomputed = 0
	// Diffusion before any merge must see an all-clean dirty map (fresh
	// zero stamps never equal a positive dirtyEpoch).
	for len(st.dirty) < n {
		st.dirty = append(st.dirty, 0)
	}
	if st.bspProg == nil {
		st.bspProg = &clusterDiffusionProgram{}
	}
	prog := st.bspProg
	// Config is re-read on every call, not just at program creation, so
	// a future per-round threshold change cannot silently reuse the
	// first round's value.
	prog.threshold = threshold
	prog.offsets = st.offsets[:n]
	prog.deg = st.deg[:n]
	prog.nbrs, prog.wts = st.nbrs, st.wts
	prog.lvl = st.exStates
	prog.edgeCnt = st.edgeCnt[:n]
	prog.bests = st.bests[:n]
	prog.dirty = st.dirty[:n]
	prog.dirtyEpoch = st.dirtyEpoch
	if cap(prog.bcRows) < n {
		// Like the level arrays, capacity 2n outlasts every mint.
		prog.bcRows = make([]int32, n, 2*n)
	} else {
		prog.bcRows = prog.bcRows[:n]
	}
	prog.bcN.Store(0)
	if st.bspEng == nil {
		eng, err := bsp.New[edgeRef](n, prog, bsp.Config{Workers: st.shards, Chaos: st.bspChaos})
		if err != nil {
			return nil, 0, 0, err
		}
		st.bspEng = eng
	} else if err := st.bspEng.Rebind(n, prog); err != nil {
		return nil, 0, 0, err
	}
	// Hang this round's engine run(s) beneath the round span (nil when
	// the build is untraced — the engine then skips span work entirely).
	st.bspEng.SetSpan(span)

	seeded := st.haveCache
	var stats *bsp.Stats
	var err error
	if seeded {
		// The last merge retired st.selected's endpoints, and the run is
		// about to recompute every seeded row's statistics: drop both
		// groups from the running edge total now, re-add the seeded rows
		// with their fresh counts after the run. Each edge is owned by
		// its smaller endpoint, and a clean alive row's adjacency — hence
		// its count — is unchanged by construction, so the total stays
		// exact without any O(alive) rescan.
		for _, e := range st.selected {
			st.bspActiveEdges -= st.edgeCnt[e.U()] + st.edgeCnt[e.V()]
		}
		seed := st.bspSeed[:0]
		for _, u := range st.dirtyList {
			if st.alive[u] { // dirtyList also names retired old neighbors
				st.bspActiveEdges -= st.edgeCnt[u]
				seed = append(seed, bsp.VertexID(u))
			}
		}
		st.bspSeed = seed
		stats, err = st.bspEng.RunFrom(seed)
	} else {
		st.bspActiveEdges = 0
		st.bspHeap = st.bspHeap[:0]
		stats, err = st.bspEng.Run()
	}
	if err != nil {
		return nil, 0, 0, err
	}
	st.haveCache = true
	agg.Add(stats)
	for _, a := range stats.ActivePerStep {
		st.recomputed += a
	}

	// Superstep 0 recomputed edgeCnt for exactly the seeded rows (or
	// every row on the first round): fold them back in, and push the
	// rows whose best incident edge moved onto the global-best heap.
	if seeded {
		for _, v := range st.bspSeed {
			st.bspActiveEdges += st.edgeCnt[v]
		}
		for _, u := range prog.bcRows[:prog.bcN.Load()] {
			st.bspHeapPush(u)
		}
	} else {
		// Unseeded runs start from an empty heap (the bcRows delta is
		// relative to whatever bests held before), so every alive row
		// with an incident edge is (re)pushed.
		for u := int32(0); int(u) < n; u++ {
			st.bspActiveEdges += st.edgeCnt[u]
			if st.alive[u] && st.bests[u] != noEdge {
				st.bspHeapPush(u)
			}
		}
	}
	return st.selectVerified(rounds, threshold), int(st.bspActiveEdges), st.bspHeapBest().sim, nil
}
