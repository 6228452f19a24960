// Package phac implements Parallel Hierarchical Agglomerative Clustering,
// the core contribution of the paper (§2.2).
//
// Classic HAC merges one globally-best pair per iteration, which neither
// tolerates sparse similarity matrices (Challenge 1) nor scales (Challenge
// 2). Parallel HAC rounds do three things instead:
//
//  1. Diffusion — every node starts knowing its best incident edge; for r
//     iterations nodes exchange the best edge they know with their
//     neighbors and keep the maximum. Edges are totally ordered by
//     (similarity desc, canonical id asc) so ties are deterministic.
//  2. Selection — an edge is *locally maximal* if, after diffusion, both
//     of its endpoints still consider it the best edge they have heard
//     of. Locally maximal edges form a node-disjoint matching: they can
//     all be merged in parallel. Smaller r ⇒ more selected edges ⇒ more
//     parallelism (the paper fixes r = 2). Cluster never materializes
//     the last exchange: what a node knows only improves, so an edge
//     survives iteration r at both endpoints iff it is mutual-best after
//     iteration r-1 and no neighbor of either endpoint knows a better
//     one then — checked at the few mutual-best pairs instead of
//     recomputed for every row (see state.exStates).
//  3. Merge + update — each selected pair becomes a new cluster; the
//     neighborhood similarities are recomputed with the √-normalized rule
//     of Eq. 4, treating missing edges as 0. When both endpoints of an old
//     edge merged in the same round the two Eq. 4 applications compose
//     multiplicatively.
//
// Rounds repeat until no edge reaches the stop threshold. The globally
// maximal edge is always locally maximal, so progress is guaranteed.
//
// The clustering state is held in compressed-sparse-row form with
// explicit per-row degrees (a row's span is offsets[u] ..
// offsets[u]+deg[u]): each merge round sort-merges the coalesced edge
// contributions and patches them into the CSR in place — dirty
// surviving rows compact within their own spans (a merge only ever
// shrinks a row), minted rows append at the tail, dead rows keep their
// storage at degree zero — so a round costs O(touched adjacency), not
// O(alive edges), and the diffusion inner loop never allocates and
// never chases map buckets.
//
// What of the paper's scalability claim this repository reproduces. The
// claim has two halves. Reproduced: Parallel HAC needs far fewer, far
// wider rounds than sequential HAC's one merge per iteration — on the
// E4-large entity graph (15 874 entities; 13 048 sequential iterations
// against 183 rounds at r = 2 and 13 at r = 0) it is 1.8-1.9x faster than
// internal/hac at the paper's r = 2 and 4.0-4.5x at r = 0, and E5's table
// shows the rounds widening as r falls. Not reproduced at <= 155 k
// entities on two cores: rounds getting faster with workers. Cluster
// runs every phase of every round inline on the calling goroutine,
// because one frontier-memoized goroutine beat every parallel variant
// built here — forked phases at every grain (PR 20), and the same
// memoized protocol as a Pregel vertex program on a BSP engine, last
// measured before its deletion (shoal-gen -scenarios N -items 200
// -queries 40, shoal-build -no-embeddings -v, the parallel-hac stage in
// ms, every run made, variants alternated, identical rounds / candidates
// / selected throughout):
//
//	entities   inline                            BSP engine, 1 worker              BSP engine, 2 workers
//	 41 555    334* 128 130 143 110 117 114      198 202 205 256 164 165 185       219 202 200 176 177 177 170
//	155 538    663 411                           1 019 705                         1 441 1 443
//
// (* first run after generating the corpus.) The vertex-program
// formulation survives as experiment E9 (internal/experiments), which
// proves it byte-identical to Diffuse under every row placement and
// delivery order on a serial superstep loop; the engine is deleted and
// no product build contains either.
package phac

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"shoal/internal/dendrogram"
	"shoal/internal/obs"
	"shoal/internal/wgraph"
)

// Linkage selects the similarity-update rule applied on merge. The paper
// uses SqrtSize (Eq. 4); the alternatives exist for the E8 ablation.
type Linkage int

const (
	// LinkageSqrtSize is Eq. 4: weights √nA/(√nA+√nB) and √nB/(√nA+√nB).
	LinkageSqrtSize Linkage = iota
	// LinkageUnweighted averages with weights 1/2 regardless of size.
	LinkageUnweighted
	// LinkageSizeProportional weights by nA/(nA+nB) (UPGMA-style).
	LinkageSizeProportional
)

func (l Linkage) String() string {
	switch l {
	case LinkageSqrtSize:
		return "sqrt-size"
	case LinkageUnweighted:
		return "unweighted"
	case LinkageSizeProportional:
		return "size-proportional"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// weights returns the (wA, wB) merge weights for sizes nA, nB.
func (l Linkage) weights(nA, nB float64) (float64, float64) {
	switch l {
	case LinkageUnweighted:
		return 0.5, 0.5
	case LinkageSizeProportional:
		den := nA + nB
		return nA / den, nB / den
	default:
		sa, sb := math.Sqrt(nA), math.Sqrt(nB)
		den := sa + sb
		return sa / den, sb / den
	}
}

// Config controls Parallel HAC.
type Config struct {
	// StopThreshold ends clustering when no edge reaches it.
	StopThreshold float64
	// DiffusionRounds is r, the number of max-exchange iterations per
	// round. The paper sets 2.
	DiffusionRounds int
	// Workers and Shards are read by nothing, written only by the frozen
	// benchmark/replay.go: every phase of every round runs inline on the
	// caller's goroutine. The next benchmark-archetype PR deletes them.
	Workers int
	Shards  int
	// FrontierDensity tunes frontier-pruned diffusion: an exchange
	// iteration recomputes only nodes with a changed neighbor when the
	// previous phase changed at most this fraction of the alive nodes,
	// and falls back to the dense scan above it. 0 means the default
	// (0.25); a negative value disables pruning entirely. Results are
	// byte-identical for every setting — pruning skips only provably
	// unchanged recomputes.
	FrontierDensity float64
	// MaxRounds caps clustering rounds; 0 means unlimited.
	MaxRounds int
	// Linkage is the merge update rule; zero value is the paper's Eq. 4.
	Linkage Linkage
}

// DefaultConfig mirrors the paper: r=2, threshold 0.35.
func DefaultConfig() Config {
	return Config{StopThreshold: 0.35, DiffusionRounds: 2}
}

func (c *Config) validate() error {
	if c.StopThreshold < 0 || c.StopThreshold > 1 {
		return fmt.Errorf("phac: StopThreshold must be in [0,1], got %f", c.StopThreshold)
	}
	if c.DiffusionRounds < 0 {
		return fmt.Errorf("phac: DiffusionRounds must be non-negative, got %d", c.DiffusionRounds)
	}
	if c.FrontierDensity == 0 {
		c.FrontierDensity = DefaultFrontierDensity
	}
	if c.Linkage < LinkageSqrtSize || c.Linkage > LinkageSizeProportional {
		return fmt.Errorf("phac: unknown linkage %d", c.Linkage)
	}
	return nil
}

// RoundStat profiles one Parallel HAC round — the data behind experiment
// E5 (diffusion iterations vs. parallelism).
type RoundStat struct {
	Round int
	// ActiveClusters is the number of alive clusters entering the round.
	ActiveClusters int
	// ActiveEdges is the number of edges >= StopThreshold entering it.
	ActiveEdges int
	// Selected is the number of locally-maximal edges merged.
	Selected int
	// BestSim is the global maximum similarity entering the round.
	BestSim float64
}

// Result is the output of Parallel HAC.
type Result struct {
	Dendrogram *dendrogram.Dendrogram
	Rounds     []RoundStat
	// BSP, ReplayedRounds and ReplayedMerges are written by nothing and
	// read only by the frozen benchmark/replay.go; the next
	// benchmark-archetype PR deletes them with those reads.
	BSP            *NoStats
	ReplayedRounds int
	ReplayedMerges int
}

// edgeRef is a totally ordered reference to an edge: better means higher
// similarity, ties broken by smaller canonical (u,v). The endpoints are
// packed into one uint64 key (u<<32 | v, canonical u < v) so the ref is
// 16 bytes — the diffusion exchange loop streams these, and the packing
// makes the tie-break a single integer compare with the same order as
// (u asc, v asc).
type edgeRef struct {
	sim float64
	key uint64 // canonical u<<32 | v
}

// mkEdgeRef builds the canonical ref for the edge (u,v).
func mkEdgeRef(u, v int32, sim float64) edgeRef {
	if v < u {
		u, v = v, u
	}
	return edgeRef{sim: sim, key: uint64(uint32(u))<<32 | uint64(uint32(v))}
}

// U and V unpack the canonical endpoints.
func (e edgeRef) U() int32 { return int32(e.key >> 32) }
func (e edgeRef) V() int32 { return int32(uint32(e.key)) }

var noEdge = edgeRef{sim: math.Inf(-1), key: ^uint64(0)}

// better reports whether a beats b in the diffusion total order.
func better(a, b edgeRef) bool {
	if a.sim != b.sim {
		return a.sim > b.sim
	}
	return a.key < b.key
}

// Cluster runs Parallel HAC over g with initial cluster sizes (nil means
// all 1); g is read once and never modified. Leaf ids in the dendrogram
// are graph node ids. The result is deterministic. Cancellation is
// checked between clustering rounds.
func Cluster(ctx context.Context, g *wgraph.CSR, sizes []int, cfg Config) (*Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("phac: empty graph")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sizes != nil && len(sizes) != n {
		return nil, fmt.Errorf("phac: sizes length %d != nodes %d", len(sizes), n)
	}

	st := newState(g, sizes, cfg)
	res := &Result{Dendrogram: &dendrogram.Dendrogram{Leaves: n}}

	// One child span per merge round when the caller's context carries a
	// build-trace span; psp == nil composes through the nil-safe span
	// methods, so the untraced path runs untouched.
	psp := obs.SpanFromContext(ctx)
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.MaxRounds > 0 && round >= cfg.MaxRounds {
			break
		}
		var rsp *obs.Span
		if psp != nil {
			rsp = psp.Child("round-" + strconv.Itoa(round))
		}
		selected, activeEdges, bestSim := st.selectLocalMaxima(cfg.DiffusionRounds, cfg.StopThreshold)
		stat := RoundStat{
			Round: round, ActiveClusters: st.aliveCount,
			ActiveEdges: activeEdges, BestSim: bestSim, Selected: len(selected),
		}
		rsp.SetAttr("aliveRows", stat.ActiveClusters)
		rsp.SetAttr("activeEdges", stat.ActiveEdges)
		rsp.SetAttr("selected", stat.Selected)
		rsp.SetAttr("bestSim", stat.BestSim)
		if activeEdges == 0 || bestSim < cfg.StopThreshold {
			st.endRound(rsp)
			break
		}
		res.Rounds = append(res.Rounds, stat)
		if len(selected) == 0 {
			st.endRound(rsp)
			// Cannot happen while an edge >= threshold exists (the
			// global max is always mutual), but guard against it so a
			// bug cannot loop forever.
			return nil, fmt.Errorf("phac: round %d selected no edges with best sim %f", round, bestSim)
		}
		st.mergeSelected(selected, round, cfg, res.Dendrogram)
		// The merge just stamped next round's dirty worklist — the frontier
		// the memoized diffusion will start from.
		rsp.SetAttr("frontierSize", len(st.dirtyList))
		st.endRound(rsp)
	}
	return res, nil
}

// endRound closes a round's span with the counts that explain its cost:
// rows the init and exchange phases recomputed and mutual-best pairs the
// selection verified. Both are list lengths the phases already had.
func (st *state) endRound(rsp *obs.Span) {
	if rsp == nil {
		return // untraced: skip boxing the counts
	}
	rsp.SetAttr("recomputedRows", st.recomputed)
	rsp.SetAttr("candidates", st.candidates)
	rsp.End()
}

// state is the mutable clustering state. Cluster ids grow past n as merges
// mint new ids; alive marks current clusters. The current graph is a
// degree-explicit CSR over all minted ids: row u's live span is
// offsets[u] .. offsets[u]+deg[u], with offsets[total] the tail
// high-water mark. Spans never move once laid out — merges shrink
// surviving rows in place (deg drops, the slack stays as dead storage),
// zero dead rows' degrees, and append minted rows' spans at the tail —
// so no per-node maps and no per-round rebuild exist anywhere on the
// clustering path.
type state struct {
	total   int       // minted ids; CSR rows
	offsets []int32   // row span starts: len total+1, [total] = tail
	nbrs    []int32   // neighbor ids, ascending within each row
	wts     []float64 // parallel weights
	deg     []int32   // id -> live row length (0 for dead rows)
	// ownsCur is false while the current CSR aliases the caller's frozen
	// graph (round 0); those arrays are never written — ensureOwned
	// copies them on the first merge.
	ownsCur    bool
	size       []float64
	alive      []bool
	aliveCount int
	density    float64 // frontier density threshold (cfg.FrontierDensity)
	// exStates memoizes the diffusion cascade across merge rounds, all of
	// it that is ever materialized: exStates[0] holds every node's init
	// state (best incident >= threshold edge) and exStates[k] the state
	// after exchange iteration k, for k up to r-1 — max(r, 1) levels.
	// Level r is never computed. A level only improves with k and a
	// node's own incident edges enter at level 0, so edge e = (u, v) is
	// known to both endpoints at level r iff it is at level r-1 and no
	// neighbor of u or v knows a better edge at level r-1: selectVerified
	// checks that at the mutual-best pairs of the last level, a few dozen
	// per round where level r was recomputed for most alive rows. Between
	// rounds only rows whose adjacency the last merge touched (dirty)
	// and the neighborhoods of cross-round-changed values can differ, so
	// each phase recomputes just that frontier and reuses every other
	// entry as-is — the sparse-activation structure of late clustering
	// rounds, byte-identical to the dense recomputation. Each phase both
	// consumes and produces an explicit worklist (dirtyList in, chList
	// through, afList between scatter and recompute), so finding the
	// frontier costs O(frontier), not an O(alive) stamp scan per phase.
	exStates  [][]edgeRef
	haveCache bool     // exStates/edgeCnt/bests hold the previous round
	afMark    []uint32 // id -> epoch it was marked for recomputation
	epoch     uint32   // phase counter (never reset)
	// nodes is the aliveList scratch: the ascending alive ids when
	// nodesValid (maintained incrementally by the per-round retire
	// passes), arbitrary otherwise.
	nodes      []int32
	nodesValid bool
	edgeCnt    []int64   // id -> round-stat edge count (owned at min id)
	bests      []edgeRef // id -> best incident edge regardless of threshold
	selected   []edgeRef // selection output, reused per round
	mergeTo    []int32   // id -> new id this round, -1 otherwise
	coef       []float64 // id -> Eq. 4 coefficient this round
	// recomputed and candidates profile the current round for its trace
	// span (endRound): the first is reset by each selection, the second
	// by selectVerified.
	recomputed int
	candidates int
	// dirty stamps ids whose adjacency the current merge round changed:
	// dirty[id] == dirtyEpoch means dirty. Marks are written inside the
	// contribution-generation pass (which already walks every merged
	// member's adjacency), so no separate marking scan exists; the epoch
	// bump replaces the per-round clear.
	dirty      []uint32
	dirtyEpoch uint32
	// dirtyList is the explicit worklist matching the dirty stamps: the
	// ids stamped with the current dirtyEpoch, appended once each as they
	// are stamped, so the memoized diffusion finds its work in O(|dirty|)
	// instead of scanning every alive row.
	dirtyList []int32
	// chList/chNext are the per-phase changed-row worklists: each phase
	// (init or exchange iteration) appends the rows whose value it
	// changed to chNext, which becomes chList — the input frontier of the
	// next iteration's scatter. Duplicate-free by construction (each row
	// is recomputed once per phase). afList is the scatter output — the
	// rows the pruned iteration must recompute — deduplicated via the
	// afMark epoch stamps.
	chList    []int32
	chNext    []int32
	afList    []int32
	perOwner  [][]contrib
	perOwnerB [][]contrib   // minted-minted tail scratch per owner
	hp        []int32       // k-way merge heap scratch (owner indices)
	hpPos     []int32       // k-way merge per-owner cursor scratch
	newEdges  []wgraph.Edge // aggregated >= threshold edges
	// edgeAt indexes newEdges by U for the in-place patch: an entry
	// dirtyEpoch<<32 | k says the id's run of coalesced edges starts at
	// newEdges[k] this round; any other epoch means it has none. Stamped
	// in one pass over the (U, V)-sorted list, so a dirty row finds its
	// run without searching and nothing is cleared between rounds.
	edgeAt []uint64
}

func newState(c *wgraph.CSR, sizes []int, cfg Config) *state {
	n := c.NumNodes()
	offsets, nbrs, wts := c.Adj()
	// Normalize here too so direct constructions (tests) get the default
	// density without going through validate.
	if cfg.FrontierDensity == 0 {
		cfg.FrontierDensity = DefaultFrontierDensity
	}
	st := &state{
		total:   n,
		offsets: offsets,
		nbrs:    nbrs,
		wts:     wts,
		deg:     make([]int32, n, 2*n),
		ownsCur: false,
		// dirtyEpoch starts above the zero value of fresh dirty stamps:
		// before the first merge nothing is dirty, so round 0's frontier
		// scatter must not see every zero stamp as a match.
		dirtyEpoch: 1,
		size:       make([]float64, n, 2*n),
		alive:      make([]bool, n, 2*n),
		aliveCount: n,
		density:    cfg.FrontierDensity,
		exStates:   make([][]edgeRef, max(cfg.DiffusionRounds, 1)),
		afMark:     make([]uint32, n, 2*n),
		edgeAt:     make([]uint64, n, 2*n),
		edgeCnt:    make([]int64, n, 2*n),
		bests:      make([]edgeRef, n, 2*n),
		mergeTo:    make([]int32, n, 2*n),
	}
	for it := range st.exStates {
		// Capacity 2n outlasts every mint: a clustering can never create
		// more than n-1 new ids, so these arrays are never reallocated.
		arr := make([]edgeRef, n, 2*n)
		for i := range arr {
			arr[i] = noEdge
		}
		st.exStates[it] = arr
	}
	for i := 0; i < n; i++ {
		st.alive[i] = true
		st.size[i] = 1
		if sizes != nil {
			st.size[i] = float64(sizes[i])
		}
		st.bests[i] = noEdge
		st.mergeTo[i] = -1
		st.deg[i] = offsets[i+1] - offsets[i]
	}
	return st
}

// ensureOwned copies the CSR out of the caller's frozen graph before the
// first in-place write. One copy per clustering: every later round
// patches the owned arrays directly.
func (st *state) ensureOwned() {
	if st.ownsCur {
		return
	}
	n := st.total
	half := int(st.offsets[n])
	// Row-start headroom for minted ids, entry headroom for their spans:
	// 2n+1 rows can never be exceeded, and minted spans are bounded by
	// the merged rows' combined (shrink-only) adjacency, so 3/2 entry
	// slack makes tail reallocation rare without doubling the footprint.
	offsets := make([]int32, n+1, 2*n+1)
	copy(offsets, st.offsets[:n+1])
	nbrs := make([]int32, half, half+half/2)
	copy(nbrs, st.nbrs[:half])
	wts := make([]float64, half, half+half/2)
	copy(wts, st.wts[:half])
	st.offsets, st.nbrs, st.wts = offsets, nbrs, wts
	st.ownsCur = true
}

// aliveList returns the ascending alive cluster ids. After the first
// full build the list is maintained incrementally by the merge's
// retire pass (compact the dead, append the minted — O(alive) per
// round, not O(total)), so this scan runs once per clustering.
func (st *state) aliveList() []int32 {
	if st.nodesValid {
		return st.nodes
	}
	out := st.nodes[:0]
	for id := int32(0); int(id) < st.total; id++ {
		if st.alive[id] {
			out = append(out, id)
		}
	}
	st.nodes = out
	st.nodesValid = true
	return out
}

// retireNodes drops the ids a retire pass just killed from the
// maintained alive list and appends the round's minted ids (all alive,
// all greater than every prior id, so the list stays ascending).
func (st *state) retireNodes(base, newTotal int32) {
	if !st.nodesValid {
		return
	}
	w := 0
	for _, u := range st.nodes {
		if st.alive[u] {
			st.nodes[w] = u
			w++
		}
	}
	nodes := st.nodes[:w]
	for id := base; id < newTotal; id++ {
		nodes = append(nodes, id)
	}
	st.nodes = nodes
}

// selectLocalMaxima runs the diffusion protocol and returns the selected
// node-disjoint matching (sorted canonically) along with the round's edge
// count and global best similarity. Only edges >= threshold participate
// in diffusion. The scan reads the CSR arrays directly and every phase
// is memoized across merge rounds (see state.exStates): after the first
// round, init recomputes only dirty rows and each exchange iteration
// only the frontier of cross-round changes — with a dense fallback when
// the frontier outgrows the density threshold. Every phase runs inline
// on the calling goroutine; no allocation per diffusion iteration.
func (st *state) selectLocalMaxima(rounds int, threshold float64) ([]edgeRef, int, float64) {
	nodes := st.aliveList()
	// Repeated diffusion without an intervening merge (no dirty scratch
	// yet) must see an all-clean dirty map, not an out-of-range one —
	// fresh zero stamps never equal a positive dirtyEpoch.
	for len(st.dirty) < st.total {
		st.dirty = append(st.dirty, 0)
	}

	// Init phase: best incident >= threshold edge per node, plus the
	// round statistics (edge endpoints counted once, at the smaller id).
	// Cached entries are reused — only dirty rows (adjacency touched by
	// the last merge, minted rows included) can differ from last round,
	// and the last merge left them in dirtyList, so the phase iterates
	// the worklist instead of scanning every alive row for stamps. The
	// first round has no cache: its worklist is every row, against level
	// arrays that start out all noEdge.
	st.epoch++
	list := st.dirtyList
	if !st.haveCache {
		list, st.haveCache = nodes, true
	}
	st.recomputed = len(list)
	st.chList = st.initRows(list, threshold, st.exStates[0], st.chList[:0])
	var activeEdges int64
	globalBest := noEdge
	for _, u := range nodes {
		activeEdges += st.edgeCnt[u]
		if better(st.bests[u], globalBest) {
			globalBest = st.bests[u]
		}
	}

	// r-1 exchange iterations: take the max over own and neighbors' known
	// edges, reading level it and writing level it+1 so reads only see
	// the previous level. A level entry is recomputed when the node is
	// dirty (its input set changed) or any input value changed cross-
	// round; everything else provably equals the memoized value. The
	// previous phase's changed rows arrive in chList; the scatter walks
	// that list (plus the dirty list) to build afList, and the pruned
	// recompute walks afList — no per-phase stamp scans anywhere. Above
	// the density threshold the scatter would mark most rows anyway, so
	// the iteration recomputes the whole alive list instead. The r-th
	// exchange is selectVerified's neighbor pass.
	for it := 0; it+1 < rounds; it++ {
		st.epoch++
		rows := nodes
		if st.density >= 0 && float64(len(st.chList)) <= st.density*float64(len(nodes)) {
			st.afList = st.scatterList(st.chList, st.dirtyList, st.afList[:0])
			rows = st.afList
		}
		st.recomputed += len(rows)
		st.chNext = st.exchangeRows(rows, st.exStates[it], st.exStates[it+1], st.chNext[:0])
		st.chList, st.chNext = st.chNext, st.chList
	}
	return st.selectVerified(rounds, threshold), int(activeEdges), globalBest.sim
}

// selectVerified is the round's selection. know is the last
// materialized level, r-1 (level 0 when r = 0). A candidate is an edge
// both endpoints know there, found at its smaller endpoint; at r = 0
// every candidate is selected, and for r >= 1 it is selected iff the
// r-th exchange would leave it in place — no neighbor of either endpoint
// knows a better edge (see state.exStates) — which one early-exit pass
// over the two rows decides. Alive rows only list alive neighbors, so stale entries
// of dead rows are never read. The alive list ascends and a row emits
// at most its own edge, so the matching comes out in canonical (u, v)
// order.
func (st *state) selectVerified(rounds int, threshold float64) []edgeRef {
	know := st.exStates[len(st.exStates)-1]
	selected := st.selected[:0]
	st.candidates = 0
	for _, u := range st.aliveList() {
		e := know[u]
		if e.U() != u || e.sim < threshold || know[e.V()] != e {
			continue
		}
		st.candidates++
		if rounds == 0 || !(st.outbid(u, e, know) || st.outbid(e.V(), e, know)) {
			selected = append(selected, e)
		}
	}
	st.selected = selected
	return selected
}

// outbid reports whether any neighbor of u knows an edge better than e.
func (st *state) outbid(u int32, e edgeRef, know []edgeRef) bool {
	for j, end := st.offsets[u], st.offsets[u]+st.deg[u]; j < end; j++ {
		if better(know[st.nbrs[j]], e) {
			return true
		}
	}
	return false
}

// initRows is the init phase over a worklist: each listed row's best
// incident >= threshold edge into init, plus the per-id round statistics
// (edge endpoints counted once, at the smaller id). After the first
// round the list is the dirty worklist — the rows whose adjacency the
// last merge changed; every other cached entry is provably identical to
// a full recomputation. Dead list entries (merged-away ids stamped as
// neighbors) are skipped. Rows whose init state actually changed append
// to out, the next iteration's frontier. Pure CSR array scans.
func (st *state) initRows(list []int32, threshold float64, init []edgeRef, out []int32) []int32 {
	offsets, nbrs, wts, deg := st.offsets, st.nbrs, st.wts, st.deg
	for _, u := range list {
		if !st.alive[u] {
			continue
		}
		best := noEdge
		edges := int64(0)
		bestAny := noEdge
		for j, end := offsets[u], offsets[u]+deg[u]; j < end; j++ {
			v, w := nbrs[j], wts[j]
			if u < v {
				edges++
			}
			cand := mkEdgeRef(u, v, w)
			if better(cand, bestAny) {
				bestAny = cand
			}
			if w < threshold {
				continue
			}
			if better(cand, best) {
				best = cand
			}
		}
		st.edgeCnt[u] = edges
		st.bests[u] = bestAny
		if best != init[u] {
			init[u] = best
			out = append(out, u)
		}
	}
	return out
}

// scatterList builds the recompute worklist for the current level: every
// node whose input set can differ from last round — the previous phase's
// changed rows (ch) and their neighbors, who read them, plus dirty rows
// (their neighbor set itself changed; dead list entries skipped). The
// afMark epoch stamps deduplicate; out receives each marked id once.
func (st *state) scatterList(ch, dirty []int32, out []int32) []int32 {
	offsets, nbrs, deg := st.offsets, st.nbrs, st.deg
	epoch := st.epoch
	af := st.afMark
	for _, u := range ch {
		if af[u] != epoch {
			af[u] = epoch
			out = append(out, u)
		}
		for j, end := offsets[u], offsets[u]+deg[u]; j < end; j++ {
			if v := nbrs[j]; af[v] != epoch {
				af[v] = epoch
				out = append(out, v)
			}
		}
	}
	for _, u := range dirty {
		if st.alive[u] && af[u] != epoch {
			af[u] = epoch
			out = append(out, u)
		}
	}
	return out
}

// exchangeRows recomputes one level for the listed rows — the whole
// alive list, or the scatter worklist, in which case every row not on it
// keeps its memoized value, provably what the dense recomputation would
// produce (identical inputs to last round). dst[u] becomes the best of
// src over u and its neighbors; cross-round changes (new value differs
// from the memoized one) append to out.
func (st *state) exchangeRows(list []int32, src, dst []edgeRef, out []int32) []int32 {
	offsets, nbrs, deg := st.offsets, st.nbrs, st.deg
	for _, u := range list {
		best := src[u]
		for j, end := offsets[u], offsets[u]+deg[u]; j < end; j++ {
			if v := nbrs[j]; better(src[v], best) {
				best = src[v]
			}
		}
		if best != dst[u] {
			dst[u] = best
			out = append(out, u)
		}
	}
	return out
}

// contrib is one old-edge contribution to a new edge's Eq. 4 sum, tagged
// with its origin for deterministic summation order.
type contrib struct {
	key  [2]int32 // canonical new endpoints
	orig [2]int32 // canonical old endpoints
	val  float64
}

// mergeSelected applies a round's matching: mints new cluster ids, emits
// dendrogram merges, and sort-merges the surviving and coalesced edges
// into the next round's CSR. Contributions are aggregated in sorted
// origin order.
func (st *state) mergeSelected(selected []edgeRef, round int, cfg Config, d *dendrogram.Dendrogram) {
	base := int32(st.total)
	newTotal := st.total + len(selected)

	// Extend the per-id arrays for the minted clusters; mergeTo/coef map
	// a merged old cluster to its new id and Eq. 4 coefficient.
	for len(st.mergeTo) < newTotal {
		st.mergeTo = append(st.mergeTo, -1)
		st.afMark = append(st.afMark, 0)
		st.edgeAt = append(st.edgeAt, 0)
		st.edgeCnt = append(st.edgeCnt, 0)
		st.bests = append(st.bests, noEdge)
	}
	for it := range st.exStates {
		for len(st.exStates[it]) < newTotal {
			st.exStates[it] = append(st.exStates[it], noEdge)
		}
	}
	for len(st.coef) < newTotal {
		st.coef = append(st.coef, 0)
	}
	for i, e := range selected {
		id := base + int32(i)
		eu, ev := e.U(), e.V()
		wu, wv := cfg.Linkage.weights(st.size[eu], st.size[ev])
		st.mergeTo[eu] = id
		st.mergeTo[ev] = id
		st.coef[eu] = wu
		st.coef[ev] = wv
		st.size = append(st.size, st.size[eu]+st.size[ev])
		st.alive = append(st.alive, true)
		d.Merges = append(d.Merges, dendrogram.Merge{
			A: eu, B: ev, New: id, Sim: e.sim, Round: int32(round),
		})
	}

	// Generate contributions from every old edge with >= 1 merged
	// endpoint, pre-sorted per owner. Each selected pair's owner merges
	// its two members' ascending adjacency streams two-pointer style
	// (ties resolved to the smaller member, whose canonical origin sorts
	// first), so surviving-neighbor contributions — keys (nb, w), nb
	// below base — emerge already in (key, orig) order. Only the usually
	// tiny tail of minted-minted contributions — keys (w, q), q minted
	// above w, discovered in old-neighbor order rather than q order —
	// needs a sort, and every minted key sorts after every surviving key,
	// so the sorted tail appends after the merged prefix. This removes
	// the former full per-owner sort from the round. Old edges between
	// two merged nodes are emitted by the owner of the smaller new id
	// only (dedup).
	//
	// The pass also stamps the round's dirty rows for the rebuild and the
	// next round's memoized diffusion: every visited neighbor (the walk
	// covers both members' whole adjacency) plus the owner's minted row.
	// A neighbor shared by several owners is stamped by the first one, so
	// dirtyList comes out duplicate-free.
	offsets, nbrs, wts, deg := st.offsets, st.nbrs, st.wts, st.deg
	for len(st.perOwner) < len(selected) {
		st.perOwner = append(st.perOwner, nil)
		st.perOwnerB = append(st.perOwnerB, nil)
	}
	for len(st.dirty) < newTotal {
		st.dirty = append(st.dirty, 0)
	}
	st.dirtyEpoch++
	dirty, dirtyEpoch := st.dirty, st.dirtyEpoch
	dl := st.dirtyList[:0]
	perOwner, perOwnerB := st.perOwner, st.perOwnerB
	for i, e := range selected {
		w := base + int32(i)
		eu, ev := e.U(), e.V()
		out := perOwner[i][:0]
		tail := perOwnerB[i][:0]
		jU, endU := offsets[eu], offsets[eu]+deg[eu]
		jV, endV := offsets[ev], offsets[ev]+deg[ev]
		wu, wv := st.coef[eu], st.coef[ev]
		dirty[w] = dirtyEpoch // minted rows are always fresh
		dl = append(dl, w)
		for jU < endU || jV < endV {
			var member, nb int32
			var wm, s float64
			// Pick the stream with the smaller neighbor; on a shared
			// neighbor the smaller member goes first (its canonical
			// origin precedes the other's for every neighbor position).
			if jV >= endV || (jU < endU && nbrs[jU] <= nbrs[jV]) {
				member, nb, wm, s = eu, nbrs[jU], wu, wts[jU]
				jU++
			} else {
				member, nb, wm, s = ev, nbrs[jV], wv, wts[jV]
				jV++
			}
			if dirty[nb] != dirtyEpoch {
				dirty[nb] = dirtyEpoch
				dl = append(dl, nb)
			}
			mappedNb := st.mergeTo[nb]
			if mappedNb < 0 {
				oa, ob := canon(member, nb)
				out = append(out, contrib{key: [2]int32{nb, w}, orig: [2]int32{oa, ob}, val: wm * s})
				continue
			}
			if mappedNb <= w {
				continue // internal edge, or the other owner emits it
			}
			oa, ob := canon(member, nb)
			tail = append(tail, contrib{key: [2]int32{w, mappedNb}, orig: [2]int32{oa, ob}, val: wm * st.coef[nb] * s})
		}
		slices.SortFunc(tail, cmpContrib)
		perOwner[i] = append(out, tail...)
		perOwnerB[i] = tail[:0]
	}
	st.dirtyList = dl

	// Aggregate via k-way merge with inline group summation, replacing
	// the former flatten + O(E log E) global re-sort each round. Every
	// old edge contributes exactly once, so (key, orig) pairs are unique
	// across owners and the merge pops contributions in the exact global
	// (key, orig) order the old sort produced — float summation per key
	// is byte-identical.
	newEdges := st.kwayMergeSum(perOwner[:len(selected)], cfg.StopThreshold)

	// Patch the contracted CSR in place. A clean row — untouched by this
	// round's merges — provably keeps its whole adjacency and is never
	// visited; a dirty surviving row's new adjacency (kept survivors in
	// its own order, then coalesced minted partners ascending) is never
	// longer than its old one, because every partner replaces at least
	// one merged neighbor and sub-threshold sums drop, so it compacts
	// within its own span; minted rows lay fresh spans at the tail. Dead
	// rows keep their storage at degree zero. Every row still receives
	// its neighbors ascending (old ids < base first, minted ids >= base
	// after) in exactly the order the former full rebuild produced, and
	// the round costs O(dirty adjacency + coalesced edges) instead of
	// O(alive edges).
	st.ensureOwned()
	for len(st.deg) < newTotal {
		st.deg = append(st.deg, 0)
	}
	offsets, nbrs, wts, deg = st.offsets, st.nbrs, st.wts, st.deg
	for k := len(newEdges) - 1; k >= 0; k-- {
		// Descending, so each U is left holding its run's first index.
		st.edgeAt[newEdges[k].U] = uint64(dirtyEpoch)<<32 | uint64(k)
	}
	for _, u := range st.dirtyList {
		if u >= base || st.mergeTo[u] >= 0 {
			continue // minted rows fill below; members retire below
		}
		lo := offsets[u]
		wi := lo
		for j, end := lo, lo+deg[u]; j < end; j++ {
			if v := nbrs[j]; st.mergeTo[v] < 0 {
				nbrs[wi], wts[wi] = v, wts[j]
				wi++
			}
		}
		if at := st.edgeAt[u]; uint32(at>>32) == dirtyEpoch {
			for k := int(uint32(at)); k < len(newEdges) && newEdges[k].U == u; k++ {
				nbrs[wi], wts[wi] = newEdges[k].V, newEdges[k].W
				wi++
			}
		}
		deg[u] = wi - lo
	}

	// Minted rows: count their degrees (a coalesced edge's V endpoint is
	// always minted — canonical keys order minted ids last — and its U
	// endpoint may be), lay their spans out at the tail, then scatter the
	// (U,V)-sorted list once with per-row write cursors: a row's V-side
	// partners (ids below it) all precede its U-side run (ids above it),
	// ascending within each, so the single pass writes each minted row in
	// canonical ascending order.
	for i := range selected {
		deg[base+int32(i)] = 0
	}
	for _, e := range newEdges {
		deg[e.V]++
		if e.U >= base {
			deg[e.U]++
		}
	}
	for len(st.offsets) < newTotal+1 {
		st.offsets = append(st.offsets, 0)
	}
	offsets = st.offsets
	tail := offsets[st.total]
	for i := range selected {
		w := base + int32(i)
		offsets[w] = tail
		tail += deg[w]
	}
	offsets[newTotal] = tail
	if grow := int(tail) - len(st.nbrs); grow > 0 {
		st.nbrs = append(st.nbrs, make([]int32, grow)...)
		st.wts = append(st.wts, make([]float64, grow)...)
	}
	nbrs, wts = st.nbrs, st.wts
	for i := range selected {
		deg[base+int32(i)] = 0 // reused as the write cursor; restored by the fill
	}
	for _, e := range newEdges {
		w := e.V
		p := offsets[w] + deg[w]
		nbrs[p], wts[p] = e.U, e.W
		deg[w]++
		if e.U >= base {
			w = e.U
			p = offsets[w] + deg[w]
			nbrs[p], wts[p] = e.V, e.W
			deg[w]++
		}
	}

	// Retire the merged clusters and clear this round's merge map; dead
	// rows' spans stay allocated but empty.
	for _, e := range selected {
		st.alive[e.U()] = false
		st.alive[e.V()] = false
		st.mergeTo[e.U()] = -1
		st.mergeTo[e.V()] = -1
		deg[e.U()] = 0
		deg[e.V()] = 0
	}
	st.aliveCount -= len(selected)
	st.retireNodes(base, int32(newTotal))
	st.total = newTotal
}

// cmpContrib orders contributions by (key, orig) — the deterministic
// global summation order.
func cmpContrib(x, y contrib) int {
	if x.key[0] != y.key[0] {
		return int(x.key[0] - y.key[0])
	}
	if x.key[1] != y.key[1] {
		return int(x.key[1] - y.key[1])
	}
	if x.orig[0] != y.orig[0] {
		return int(x.orig[0] - y.orig[0])
	}
	return int(x.orig[1] - y.orig[1])
}

// kwayMergeSum merges the pre-sorted per-owner contribution lists in
// global (key, orig) order via a binary min-heap of owner cursors,
// summing each key group inline and keeping groups >= threshold (Eq. 4
// is a convex combination, so a sub-threshold edge can never feed a
// future >= threshold similarity). Output arrives sorted by canonical
// key. Heap, cursor and output scratch are reused across rounds.
func (st *state) kwayMergeSum(lists [][]contrib, threshold float64) []wgraph.Edge {
	for len(st.hpPos) < len(lists) {
		st.hpPos = append(st.hpPos, 0)
	}
	pos := st.hpPos[:len(lists)]
	hp := st.hp[:0]
	for i := range lists {
		pos[i] = 0
		if len(lists[i]) > 0 {
			hp = append(hp, int32(i))
		}
	}
	st.hp = hp[:0] // persist a grown backing for the next round
	less := func(a, b int32) bool {
		return cmpContrib(lists[a][pos[a]], lists[b][pos[b]]) < 0
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(hp) && less(hp[l], hp[m]) {
				m = l
			}
			if r < len(hp) && less(hp[r], hp[m]) {
				m = r
			}
			if m == i {
				return
			}
			hp[i], hp[m] = hp[m], hp[i]
			i = m
		}
	}
	for i := len(hp)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	newEdges := st.newEdges[:0]
	var curKey [2]int32
	var sum float64
	have := false
	for len(hp) > 0 {
		o := hp[0]
		c := lists[o][pos[o]]
		pos[o]++
		if int(pos[o]) == len(lists[o]) {
			hp[0] = hp[len(hp)-1]
			hp = hp[:len(hp)-1]
		}
		siftDown(0)
		if !have || c.key != curKey {
			if have && sum >= threshold {
				newEdges = append(newEdges, wgraph.Edge{U: curKey[0], V: curKey[1], W: sum})
			}
			curKey, sum, have = c.key, 0, true
		}
		sum += c.val
	}
	if have && sum >= threshold {
		newEdges = append(newEdges, wgraph.Edge{U: curKey[0], V: curKey[1], W: sum})
	}
	st.newEdges = newEdges
	return newEdges
}

func canon(u, v int32) (int32, int32) {
	if u < v {
		return u, v
	}
	return v, u
}
