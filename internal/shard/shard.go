// Package shard partitions the immutable CSR graph substrate into
// contiguous row-range shards — the unit of work of the multi-worker
// entity-graph construction.
//
// A shard.CSR is a zero-copy view over one *wgraph.CSR: each shard owns
// the rows [lo,hi) of a Plan that balances shards by adjacency entries
// (edge count), not node count, so skewed degree distributions still
// yield even per-worker work. Per-shard aggregates (entry, edge and
// weight totals) are cached at construction. The whole thing satisfies
// wgraph.View and unwraps to its base CSR through wgraph.CSRBacked, so
// every consumer of a plain CSR works unchanged; clustering reads the
// base CSR and never looks at the plan.
//
// Determinism contract: sharding never changes any observable result.
// The construction is byte-identical for every shard count, and so is
// everything computed over the view (see the
// TestShardedObservationallyIdentical family at the shard, phac and
// core levels).
package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"shoal/internal/wgraph"
)

// Plan is a partition of the row space [0,n) into contiguous shards.
// Shard i covers rows [bounds[i], bounds[i+1]).
type Plan struct {
	bounds []int32
}

// NumShards returns the number of shards in the plan.
func (p Plan) NumShards() int {
	if len(p.bounds) == 0 {
		return 0
	}
	return len(p.bounds) - 1
}

// Bounds returns the row range [lo,hi) of shard i.
func (p Plan) Bounds(i int) (lo, hi int32) {
	return p.bounds[i], p.bounds[i+1]
}

// Find returns the shard owning row u.
func (p Plan) Find(u int32) int {
	// First bound strictly greater than u, minus one.
	i := sort.Search(len(p.bounds)-1, func(i int) bool { return p.bounds[i+1] > u })
	return i
}

// clampShards resolves a shard-count request: <= 0 means GOMAXPROCS, and
// a plan never has more shards than rows (plus at least one).
func clampShards(shards, n int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// PlanCounts builds a plan over len(counts) rows balanced by the given
// per-row counts (adjacency entries, degrees, …): bound i is placed at
// the first row whose prefix count reaches i/shards of the total. The
// greedy prefix walk is deterministic and monotone, so equal inputs
// always produce equal plans.
func PlanCounts(counts []int32, shards int) Plan {
	n := len(counts)
	shards = clampShards(shards, n)
	var total int64
	for _, c := range counts {
		total += int64(c)
	}
	bounds := make([]int32, shards+1)
	bounds[shards] = int32(n)
	var prefix int64
	next := 1 // next bound to place
	for u := 0; u < n && next < shards; u++ {
		prefix += int64(counts[u])
		// Place every bound whose target the prefix has reached; a row
		// heavier than a whole target can consume several bounds (those
		// shards come out empty, which is fine — the plan stays valid).
		for next < shards && prefix*int64(shards) >= total*int64(next) {
			bounds[next] = int32(u + 1)
			next++
		}
	}
	for ; next < shards; next++ {
		bounds[next] = int32(n)
	}
	return Plan{bounds: bounds}
}

// PlanRows builds an edge-balanced plan over the rows of c: shard
// boundaries are chosen so each shard holds roughly the same number of
// adjacency entries rather than the same number of rows.
func PlanRows(c *wgraph.CSR, shards int) Plan {
	offsets, _, _ := c.Adj()
	n := c.NumNodes()
	shards = clampShards(shards, n)
	total := int64(offsets[n])
	bounds := make([]int32, shards+1)
	bounds[shards] = int32(n)
	for i := 1; i < shards; i++ {
		target := total * int64(i) / int64(shards)
		// First row whose prefix entry count reaches the target.
		j := sort.Search(n, func(u int) bool { return int64(offsets[u+1]) >= target })
		if j+1 > int(bounds[i-1]) {
			bounds[i] = int32(j + 1)
		} else {
			bounds[i] = bounds[i-1]
		}
		if bounds[i] > int32(n) {
			bounds[i] = int32(n)
		}
	}
	return Plan{bounds: bounds}
}

// Shard is one row-range partition of a CSR with its cached aggregates.
// The slices are zero-copy views into the base arrays; Offsets holds the
// base (global) offsets for rows [Lo,Hi] — index it as Offsets[u-Lo] —
// so Nbrs/Wts positions are Offsets[u-Lo]-Offsets[0] relative.
type Shard struct {
	Lo, Hi  int32     // row range [Lo, Hi)
	Offsets []int32   // global offsets of rows Lo..Hi (len Hi-Lo+1)
	Nbrs    []int32   // adjacency entries of the shard's rows
	Wts     []float64 // parallel weights
	// Entries is the number of directed adjacency entries in the shard
	// (== len(Nbrs)); the Plan balances this, not the row count.
	Entries int
	// Edges is the number of undirected edges owned by the shard under
	// the canonical owner rule: edge (u,v), u < v, belongs to u's shard.
	Edges int
	// DegTotal is the sum of weighted degrees over the shard's rows.
	DegTotal float64
	// Weight is the total weight of the shard's owned edges, accumulated
	// in canonical row-major order.
	Weight float64
}

// CSR is a sharded view of an immutable wgraph.CSR. It satisfies
// wgraph.View by delegating every observation to the base CSR, so
// sharding is invisible to its consumers. The per-shard aggregate caches are computed on first access (they are
// diagnostics, not hot-path state, so construction never pays for them);
// the sync.Once guard keeps a shard.CSR safe for concurrent use.
type CSR struct {
	base   *wgraph.CSR
	plan   Plan
	once   sync.Once
	shards []Shard
}

var (
	_ wgraph.View      = (*CSR)(nil)
	_ wgraph.CSRBacked = (*CSR)(nil)
)

// Partition shards c by an edge-balanced row plan. shards <= 0 means
// GOMAXPROCS. The result shares c's arrays (zero copy).
func Partition(c *wgraph.CSR, shards int) *CSR {
	return WithPlan(c, PlanRows(c, shards))
}

// WithPlan shards c by an explicit plan. Per-shard aggregates are
// populated lazily on first Shards()/Shard() access.
func WithPlan(c *wgraph.CSR, p Plan) *CSR {
	return &CSR{base: c, plan: p}
}

// initShards computes the per-shard aggregate caches. Rows are ascending
// within each CSR row, so a row's owned entries (neighbors above the row
// id) are a suffix found by a short backward walk — the edge and weight
// caches cost O(rows + owned entries) instead of a branch on every
// adjacency entry. The weight accumulation order (row-major, ascending
// within each suffix) matches the historical full scan, so the cached
// floats are unchanged.
func (s *CSR) initShards() {
	c, p := s.base, s.plan
	offsets, nbrs, wts := c.Adj()
	s.shards = make([]Shard, p.NumShards())
	for i := range s.shards {
		lo, hi := p.Bounds(i)
		sh := &s.shards[i]
		sh.Lo, sh.Hi = lo, hi
		sh.Offsets = offsets[lo : hi+1]
		sh.Nbrs = nbrs[offsets[lo]:offsets[hi]]
		sh.Wts = wts[offsets[lo]:offsets[hi]]
		sh.Entries = len(sh.Nbrs)
		for u := lo; u < hi; u++ {
			sh.DegTotal += c.WeightedDegree(u)
			rl, rh := offsets[u], offsets[u+1]
			// The owned suffix boundary, found walking backward so only
			// owned entries (plus one probe) are touched.
			j := rh
			for j > rl && nbrs[j-1] > u {
				j--
			}
			sh.Edges += int(rh - j)
			for ; j < rh; j++ {
				sh.Weight += wts[j]
			}
		}
	}
}

// minChunkEdges is the smallest per-worker edge chunk worth spawning a
// goroutine for during construction; below it the serial fast path wins.
const minChunkEdges = 2048

// FromEdges builds a sharded CSR directly from a canonical edge list
// (every edge once with U < V, sorted by (U,V), no duplicates — exactly
// wgraph.FromEdges' contract, validated identically, with the same
// deterministic first-offender errors). Construction is fully
// partition-parallel: validation, row counting, the canonical weight
// total (a fixed-shape blocked reduction, see wgraph.SumEdgeWeights) and
// the fill all split the edge list into U-aligned chunks, and every
// chunk worker touches only its own edges — the V-side scatter lands on
// precomputed per-chunk cursors instead of re-scanning the whole list —
// so total work is O(E + W·n) for any worker count. The emitted arrays,
// cached aggregates and plan are byte-identical to the serial
// wgraph.FromEdges build for every shard and worker count.
func FromEdges(n int, edges []wgraph.Edge, shards int) (*CSR, error) {
	return fromEdges(n, edges, shards, 0)
}

// fromEdges is FromEdges with an explicit construction worker count
// (<= 0 picks min(GOMAXPROCS, plan width), clamped so no chunk drops
// below minChunkEdges; tests force > 1 to exercise the chunked path on
// any machine). Output is byte-identical for every worker count.
func fromEdges(n int, edges []wgraph.Edge, shards, workers int) (*CSR, error) {
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if pw := clampShards(shards, n); pw < w {
			w = pw
		}
		if maxW := len(edges) / minChunkEdges; w > maxW {
			w = maxW
		}
		// The chunked path's per-chunk V-side counters cost w·n int32s
		// and an O(w·n) stitch; cap w so that stays proportional to the
		// output arrays (4E entries) rather than core count on huge
		// sparse graphs.
		if n > 0 {
			if maxW := 4 * len(edges) / n; w > maxW {
				w = maxW
			}
		}
	}
	if w < 1 {
		w = 1
	}

	offsets := make([]int32, n+1)
	nbrs := make([]int32, 2*len(edges))
	wts := make([]float64, 2*len(edges))
	wdeg := make([]float64, n)
	var total float64
	var err error
	if w == 1 {
		total, err = fillSerial(n, edges, offsets, nbrs, wts, wdeg)
	} else {
		total, err = fillChunked(n, edges, w, offsets, nbrs, wts, wdeg)
	}
	if err != nil {
		return nil, err
	}
	base, err := wgraph.FromParts(offsets, nbrs, wts, wdeg, total)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return WithPlan(base, planOffsets(offsets, shards)), nil
}

// CSRFromParts adopts prebuilt CSR arrays (wgraph.FromParts' contract:
// offsets/nbrs/wts/wdeg fully formed, total the canonical blocked weight
// sum) and wraps them in an edge-balanced plan identical to the one
// FromEdges would have produced for the same arrays. This is the patch
// path used by incremental rebuilds: a delta merge that materializes the
// next frozen CSR directly — untouched row spans copied wholesale from
// the previous build — lands here instead of re-running FromEdges.
func CSRFromParts(offsets, nbrs []int32, wts, wdeg []float64, total float64, shards int) (*CSR, error) {
	base, err := wgraph.FromParts(offsets, nbrs, wts, wdeg, total)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return WithPlan(base, planOffsets(offsets, shards)), nil
}

// fillSerial is the one-worker construction. It beats the interleaved
// serial wgraph.FromEdges fill on one core by exploiting the U-sorted
// input: edges are scanned as U runs, so the count pass stores each U
// degree once per run instead of incrementing per edge, and the fill
// pass keeps the U-side cursor and the row's weighted-degree accumulator
// in registers. Per-row float orders are untouched — a row's V-side
// addends (ascending U) all land in runs before its own run starts, then
// its U-side addends follow in ascending V, the exact order of the
// interleaved serial fill — so every emitted float is byte-identical.
func fillSerial(n int, edges []wgraph.Edge, offsets, nbrs []int32, wts, wdeg []float64) (float64, error) {
	degV := make([]int32, n)
	degU := make([]int32, n)
	// The canonical blocked weight total (see wgraph sum.go).
	var sums []float64
	partial, bcnt := 0.0, 0
	// Validation is fused over run-tracked register values — within a run
	// only (V ascending, V > U, V in range) needs checking, run starts
	// additionally check U order and range. The checks are equivalent to
	// wgraph.ValidateEdgeAt at every index, which rebuilds the exact
	// deterministic first-offender error on the cold path.
	prevU := int32(-1)
	for i := 0; i < len(edges); {
		u := edges[i].U
		if u <= prevU || u < 0 {
			return 0, wgraph.ValidateEdgeAt(n, edges, i)
		}
		prevU = u
		prevV := u // canonical requires V > U
		run := int32(0)
		for ; i < len(edges) && edges[i].U == u; i++ {
			e := edges[i]
			if e.V <= prevV || int(e.V) >= n {
				return 0, wgraph.ValidateEdgeAt(n, edges, i)
			}
			prevV = e.V
			degV[e.V]++
			run++
			partial += e.W
			if bcnt++; bcnt == wgraph.WeightSumBlockSize {
				sums = append(sums, partial)
				partial, bcnt = 0, 0
			}
		}
		degU[u] = run
	}

	// Offsets, plus cursor repurposing: degV[u] becomes row u's V-side
	// fill cursor (row start — V-side entries lead every row) and
	// degU[u] its U-side base (row start + V-side width).
	off := int32(0)
	for u := 0; u < n; u++ {
		offsets[u] = off
		ubase := off + degV[u]
		degV[u] = off
		off = ubase + degU[u]
		degU[u] = ubase
	}
	offsets[n] = off

	// Single fused fill, iterated by row: row u's U-side run length is
	// offsets[u+1]-degU[u], so no per-edge run-boundary compare is
	// needed. By the time row u's run starts, every V-side entry and
	// weighted-degree contribution of the row has already been written
	// (their edges have U < u), so the run loads the row's weighted
	// degree into a register, appends its U-side entries sequentially,
	// and stores the final value once.
	i := 0
	for u := int32(0); i < len(edges); u++ {
		p := degU[u]
		rl := offsets[u+1] - p
		if rl == 0 {
			continue
		}
		s := wdeg[u]
		for ; rl > 0; rl-- {
			e := edges[i]
			i++
			nbrs[p] = e.V
			wts[p] = e.W
			p++
			s += e.W
			q := degV[e.V]
			nbrs[q] = e.U
			wts[q] = e.W
			degV[e.V] = q + 1
			wdeg[e.V] += e.W
		}
		wdeg[u] = s
	}
	if bcnt > 0 {
		sums = append(sums, partial)
	}
	return wgraph.FoldWeightBlocks(sums), nil
}

// fillChunked is the multi-worker construction over U-aligned contiguous
// edge chunks (no row is split across chunks, so U-side writes are
// chunk-exclusive). Four parallel passes — validate+V-count+block-sums,
// U-count, fill, weighted-degree fold — with one serial O(W·n) stitch
// computing offsets and per-chunk V-side cursor bases in between. All
// writes are owner-partitioned (per-chunk cursor arrays for the V-side
// scatter), so no atomics are needed and the layout is deterministic.
func fillChunked(n int, edges []wgraph.Edge, w int, offsets, nbrs []int32, wts, wdeg []float64) (float64, error) {
	// U-aligned chunk cuts: advance each tentative cut to the next U
	// change so chunk U-ranges are disjoint once sortedness is certified.
	cuts := make([]int, w+1)
	cuts[w] = len(edges)
	for c := 1; c < w; c++ {
		cut := c * len(edges) / w
		if cut < cuts[c-1] {
			cut = cuts[c-1]
		}
		for cut > 0 && cut < len(edges) && edges[cut].U == edges[cut-1].U {
			cut++
		}
		cuts[c] = cut
	}

	// Claim disjoint U intervals per chunk before any worker runs: on
	// valid input the clamps are no-ops (U-aligned cuts make the natural
	// intervals disjoint), on invalid input they only restrict where a
	// chunk may write shared U-side state — so the counting below is
	// race-free even before sortedness is certified, and wrong counts on
	// invalid input are discarded with the error anyway.
	uLo := make([]int32, w)
	uHi := make([]int32, w)
	claimed := int32(-1)
	for c := 0; c < w; c++ {
		lo, hi := cuts[c], cuts[c+1]
		if lo >= hi {
			uLo[c], uHi[c] = 0, -1
			continue
		}
		l, h := edges[lo].U, edges[hi-1].U
		if l <= claimed {
			l = claimed + 1
		}
		uLo[c], uHi[c] = l, h
		if h > claimed {
			claimed = h
		}
	}

	// Pass 1: per-chunk validation (stopping at the chunk's first
	// offender, register-fused like the serial path), per-chunk V-side
	// counts (chunk-local arrays), run-based U-side degrees (each chunk
	// writes only its claimed interval), and the canonical blocked
	// weight total (fixed WeightSumBlockSize blocks split by block
	// index, so the reduction shape — and the float result — never
	// depends on w).
	cntV := make([][]int32, w)
	cntBacking := make([]int32, w*n)
	for c := range cntV {
		cntV[c] = cntBacking[c*n : (c+1)*n]
	}
	degU := make([]int32, n)
	nb := (len(edges) + wgraph.WeightSumBlockSize - 1) / wgraph.WeightSumBlockSize
	blockSums := make([]float64, nb)
	badIdx := make([]int, w)
	badErr := make([]error, w)
	var wg sync.WaitGroup
	for c := 0; c < w; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			badIdx[c] = -1
			cv := cntV[c]
			lo, hi := cuts[c], cuts[c+1]
			prevU := int32(-1)
			if lo > 0 {
				prevU = edges[lo-1].U
			}
			for i := lo; i < hi; {
				u := edges[i].U
				if u <= prevU || u < 0 {
					// Cross-chunk boundary pairs are checked here too:
					// prevU seeds from the previous chunk's last edge.
					badIdx[c], badErr[c] = i, wgraph.ValidateEdgeAt(n, edges, i)
					return
				}
				prevU = u
				prevV := u // canonical requires V > U; cuts never split a U run
				run := int32(0)
				for ; i < hi && edges[i].U == u; i++ {
					e := edges[i]
					if e.V <= prevV || int(e.V) >= n {
						badIdx[c], badErr[c] = i, wgraph.ValidateEdgeAt(n, edges, i)
						return
					}
					prevV = e.V
					cv[e.V]++
					run++
				}
				if u >= uLo[c] && u <= uHi[c] {
					degU[u] = run
				}
			}
			for b := c * nb / w; b < (c+1)*nb/w; b++ {
				blo := b * wgraph.WeightSumBlockSize
				bhi := min(blo+wgraph.WeightSumBlockSize, len(edges))
				var s float64
				for _, e := range edges[blo:bhi] {
					s += e.W
				}
				blockSums[b] = s
			}
		}(c)
	}
	wg.Wait()
	firstBad := -1
	for c := 0; c < w; c++ {
		// Chunks cover ascending index ranges, so the first chunk with an
		// offender holds the globally first one — the serial error.
		if badIdx[c] >= 0 {
			firstBad = c
			break
		}
	}
	if firstBad >= 0 {
		return 0, badErr[firstBad]
	}
	total := wgraph.FoldWeightBlocks(blockSums)

	// Stitch: one serial O(w·n) walk computes the row offsets and turns
	// each cntV[c][u] into chunk c's starting V-side cursor for row u
	// (row start + the V-side width of all earlier chunks), and degU[u]
	// into the row's U-side fill base.
	off := int32(0)
	for u := 0; u < n; u++ {
		offsets[u] = off
		acc := off
		for c := 0; c < w; c++ {
			t := cntV[c][u]
			cntV[c][u] = acc
			acc += t
		}
		off = acc + degU[u]
		degU[u] = acc
	}
	offsets[n] = off

	// Pass 3: fill. V-side scatter through the per-chunk cursors, then
	// the run-sequential U-side append from each chunk's own rows. Every
	// write position is owner-unique, and chunk c's V-side entries for a
	// row land exactly after the entries of chunks < c — reproducing the
	// input-order (ascending U) V-side layout of the serial fill.
	for c := 0; c < w; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cur := cntV[c]
			for i := cuts[c]; i < cuts[c+1]; i++ {
				e := edges[i]
				p := cur[e.V]
				nbrs[p] = e.U
				wts[p] = e.W
				cur[e.V] = p + 1
			}
			for i := cuts[c]; i < cuts[c+1]; {
				u := edges[i].U
				p := degU[u]
				for ; i < cuts[c+1] && edges[i].U == u; i++ {
					nbrs[p] = edges[i].V
					wts[p] = edges[i].W
					p++
				}
			}
		}(c)
	}
	wg.Wait()

	// Pass 4: weighted degrees by streaming row folds over disjoint row
	// ranges. A finished row is V-side entries (ascending U) then U-side
	// entries (ascending V) — the exact addend order of the serial
	// interleaved accumulation, so the floats are byte-identical.
	for c := 0; c < w; c++ {
		lo, hi := int32(c*n/w), int32((c+1)*n/w)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			rowFoldWdeg(offsets, wts, wdeg, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return total, nil
}

// rowFoldWdeg fills wdeg[lo:hi) with the left fold of each row's weights.
func rowFoldWdeg(offsets []int32, wts, wdeg []float64, lo, hi int32) {
	for u := lo; u < hi; u++ {
		var s float64
		for j := offsets[u]; j < offsets[u+1]; j++ {
			s += wts[j]
		}
		wdeg[u] = s
	}
}

// planOffsets is PlanCounts reading per-row counts from a CSR offsets
// prefix (counts[u] = offsets[u+1]-offsets[u]); bound placement is
// identical, the intermediate counts array just never materializes.
func planOffsets(offsets []int32, shards int) Plan {
	n := len(offsets) - 1
	shards = clampShards(shards, n)
	total := int64(offsets[n])
	bounds := make([]int32, shards+1)
	bounds[shards] = int32(n)
	next := 1
	for u := 0; u < n && next < shards; u++ {
		prefix := int64(offsets[u+1])
		for next < shards && prefix*int64(shards) >= total*int64(next) {
			bounds[next] = int32(u + 1)
			next++
		}
	}
	for ; next < shards; next++ {
		bounds[next] = int32(n)
	}
	return Plan{bounds: bounds}
}

// BaseCSR returns the underlying frozen CSR (wgraph.CSRBacked).
func (s *CSR) BaseCSR() *wgraph.CSR { return s.base }

// Plan returns the row partition.
func (s *CSR) Plan() Plan { return s.plan }

// NumShards returns the number of shards.
func (s *CSR) NumShards() int { return s.plan.NumShards() }

// Shards returns the per-shard views with their cached aggregates,
// computing them on first call. Read-only.
func (s *CSR) Shards() []Shard {
	s.once.Do(s.initShards)
	return s.shards
}

// Shard returns shard i (aggregates computed on first access).
func (s *CSR) Shard(i int) Shard {
	s.once.Do(s.initShards)
	return s.shards[i]
}

// --- wgraph.View delegation ------------------------------------------

// NumNodes returns the number of nodes (including isolated ones).
func (s *CSR) NumNodes() int { return s.base.NumNodes() }

// NumEdges returns the number of undirected edges.
func (s *CSR) NumEdges() int { return s.base.NumEdges() }

// Weight returns the weight of edge (u,v) and whether it exists.
func (s *CSR) Weight(u, v int32) (float64, bool) { return s.base.Weight(u, v) }

// Degree returns the number of neighbors of u.
func (s *CSR) Degree(u int32) int { return s.base.Degree(u) }

// WeightedDegree returns the cached sum of incident edge weights of u.
func (s *CSR) WeightedDegree(u int32) float64 { return s.base.WeightedDegree(u) }

// TotalWeight returns the cached total edge weight.
func (s *CSR) TotalWeight() float64 { return s.base.TotalWeight() }

// Neighbors returns u's ascending neighbor ids as a zero-copy view.
func (s *CSR) Neighbors(u int32) []int32 { return s.base.Neighbors(u) }

// ForEachNeighbor calls fn for every neighbor of u in ascending order.
func (s *CSR) ForEachNeighbor(u int32, fn func(v int32, w float64)) {
	s.base.ForEachNeighbor(u, fn)
}

// Edges returns every edge once, sorted by (U,V).
func (s *CSR) Edges() []wgraph.Edge { return s.base.Edges() }

// Components returns the connected-component labeling.
func (s *CSR) Components() []int32 { return s.base.Components() }
