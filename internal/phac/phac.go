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
//     of. Such an edge is each endpoint's own best incident edge, so the
//     selected edges are reciprocal-best pairs and form a node-disjoint
//     matching: they can all be merged in parallel. Smaller r ⇒ more
//     selected edges ⇒ wider rounds. r = 0 (DefaultConfig) selects every
//     reciprocal-best pair; the paper fixes r = 2, a parallelism choice
//     for its ODPS deployment, not a quality one. Cluster never
//     materializes the last exchange: what a node knows only improves, so
//     an edge survives iteration r at both endpoints iff it is mutual-best
//     after iteration r-1 and no neighbor of either endpoint knows a
//     better one then — checked at the few mutual-best pairs instead of
//     recomputed for every row (see state.exStates).
//  3. Merge + update — each selected pair becomes a new cluster; the
//     neighborhood similarities are recomputed with the √-normalized rule
//     of Eq. 4, treating missing edges as 0. Every sum is kept, however
//     small: a sub-threshold similarity still weighs in when its cluster
//     later merges with one it is close to, and the result can reach the
//     threshold. When both endpoints of an old edge merged in the same
//     round the two Eq. 4 applications compose multiplicatively.
//
// Rounds repeat until no edge reaches the stop threshold. The globally
// maximal edge is always locally maximal, so progress is guaranteed.
// Parallel HAC is sequential HAC in fewer rounds: Eq. 4 and both E8
// alternatives are reducible — S(A∪B, C) never exceeds max(S(A, C),
// S(B, C)) — so merging any set of reciprocal-best pairs per round forms
// exactly the clusters sequential HAC forms (RAC, Sumengen et al.,
// https://arxiv.org/abs/2105.11653), whatever r. The one freedom is
// ties: where two candidate merges have equal similarity, each order
// is a valid HAC, and the algorithms (and different r, which mint ids
// in different orders) may pick different ones. Query-only graphs
// (no embeddings), whose similarities are small fractions, tie often;
// blended graphs practically never. TestClusterMatchesSequentialHAC
// holds Cluster to internal/hac on blended entity graphs at r = 0 … 3:
// the same clusters, merge similarities bit-equal at r ≥ 1 and within
// two ulps at r = 0, where a round can compose two updates in the other
// order.
//
// The clustering state is held in compressed-sparse-row form with
// explicit per-row degrees (a row's span is offsets[u] ..
// offsets[u]+deg[u]): each merge round forms every coalesced edge in
// one walk over the merged rows and writes it into the CSR in place —
// dirty surviving rows compact within their own spans (a merge only ever
// shrinks a row), minted rows append at the tail, dead rows keep their
// storage at degree zero until the tail needs it — so a round costs
// O(touched adjacency), not O(alive edges), and the diffusion inner
// loop never allocates and never chases map buckets. A cluster whose
// best edge falls below the stop threshold can never merge again (by
// reducibility, every later similarity of it is at most its best
// current one), so the init phase retires it: it leaves the alive set,
// its degree drops to zero, merge walks skip it and compactRow drops its
// entries from a neighbor's row on that row's next compaction. The merge
// walk touches each merged neighborhood once: as it compacts and
// appends it maintains every dirty row's best edge and >= threshold
// edge count, so after round 0 the init phase reads those values for
// the dirty worklist instead of re-scanning the rows. At r = 0 and
// r = 1 retiring changes no selection, since a retired cluster knows no
// edge >= threshold at level 0. At r >= 2 a retired cluster also stops
// relaying what its neighbors know between them, so a round can select
// more pairs and the merges take fewer rounds — the same clusters (the
// RAC argument above), formed in a different round order.
//
// What of the paper's scalability claim this repository reproduces. The
// claim has two halves. Reproduced: Parallel HAC needs far fewer, far
// wider rounds than sequential HAC's one merge per iteration, and since
// it forms the same clusters the speed-up is like for like — on the
// E4-large entity graph (15 874 entities; 13 045 merges, one sequential
// iteration each, against 13 rounds at r = 0 and 314 at r = 2) it is
// 8.6-10.7x faster than internal/hac at r = 0 and 1.8-2.2x at the
// paper's r = 2 (shoal-bench -run E4 -scale large, three runs on two
// cores), and E5's table shows the rounds widening as r falls. Not
// reproduced at <= 155 k entities on two cores: rounds getting faster
// with workers. Cluster runs every phase of every round inline on the
// calling goroutine, because one frontier-memoized goroutine beat every
// parallel variant built here — forked phases at every grain, and the
// same memoized protocol as a Pregel vertex program on a BSP engine, last
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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"shoal/internal/dendrogram"
	"shoal/internal/obs"
	"shoal/internal/reuse"
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
	// round. It sets only how many rounds the merges take: every r forms
	// sequential HAC's clusters, up to the order ties are broken in (see
	// the package doc). The paper sets 2; DefaultConfig sets 0.
	DiffusionRounds int
	// Workers and Shards are read by nothing, written only by the frozen
	// benchmark/replay.go: every phase of every round runs inline on the
	// caller's goroutine. The next benchmark-archetype PR deletes them.
	Workers int
	Shards  int
	// Linkage is the merge update rule; zero value is the paper's Eq. 4.
	Linkage Linkage
}

// DefaultConfig stops at the paper's threshold 0.35 and selects at
// r = 0: every reciprocal-best pair merges each round. Any r yields the
// same clusters up to tie-breaks (see the package doc); r = 0 needs the
// fewest rounds.
func DefaultConfig() Config {
	return Config{StopThreshold: 0.35}
}

func (c *Config) validate() error {
	if c.StopThreshold < 0 || c.StopThreshold > 1 {
		return fmt.Errorf("phac: StopThreshold must be in [0,1], got %f", c.StopThreshold)
	}
	if c.DiffusionRounds < 0 {
		return fmt.Errorf("phac: DiffusionRounds must be non-negative, got %d", c.DiffusionRounds)
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
	// ActiveClusters is the number of alive clusters entering the round's
	// selection. A cluster whose best edge is below StopThreshold can never
	// merge again and is retired by the round's init, so it is not alive.
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

// retiredID is state.mergeTo's mark for a retired cluster (see retire).
const retiredID int32 = -2

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
// checked between clustering rounds. It is Workspace.Cluster over a
// fresh workspace.
func Cluster(ctx context.Context, g *wgraph.CSR, sizes []int, cfg Config) (*Result, error) {
	return new(Workspace).Cluster(ctx, g, sizes, cfg)
}

// Workspace keeps every array of a clustering's state — the per-id
// arrays, the memoized diffusion levels, the worklists, the merge
// scratch and the owned copy of the CSR with its tail slack — for the
// next clustering to re-slice and re-initialise instead of allocating.
// Nothing of a Result aliases it. The zero value is an empty workspace;
// one serves one clustering at a time.
type Workspace struct {
	st state
}

// Cluster is the one clustering routine: Parallel HAC over g, as the
// package-level Cluster, in ws's arrays. The result is the same whatever
// ws held before.
func (ws *Workspace) Cluster(ctx context.Context, g *wgraph.CSR, sizes []int, cfg Config) (*Result, error) {
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

	st := &ws.st
	st.reset(g, sizes, cfg)
	defer st.release()
	// A clustering makes at most n-1 merges: the dendrogram never regrows.
	res := &Result{Dendrogram: &dendrogram.Dendrogram{Leaves: n, Merges: make([]dendrogram.Merge, 0, max(n-1, 0))}}

	// One child span per merge round when the caller's context carries a
	// build-trace span; psp == nil composes through the nil-safe span
	// methods, so the untraced path runs untouched.
	psp := obs.SpanFromContext(ctx)
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var rsp *obs.Span
		if psp != nil {
			rsp = psp.Child("round-" + strconv.Itoa(round))
		}
		selected, activeEdges, bestSim := st.selectLocalMaxima()
		stat := RoundStat{
			Round: round, ActiveClusters: st.aliveCount,
			ActiveEdges: activeEdges, BestSim: bestSim, Selected: len(selected),
		}
		rsp.SetAttr("aliveRows", stat.ActiveClusters)
		rsp.SetAttr("retired", st.retired)
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
// high-water mark. Merges shrink surviving rows in place (deg drops,
// the slack stays as dead storage), zero dead rows' degrees, and append
// minted rows' spans at the tail; spans move only when a tail that would
// overflow compacts the alive rows down (reserveTail) — so no per-node
// maps and no per-round rebuild exist anywhere on the clustering path.
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
	rounds     int     // r, cfg.DiffusionRounds
	threshold  float64 // cfg.StopThreshold
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
	// A retired row (see retire) holds noEdge at every level.
	exStates  [][]edgeRef
	haveCache bool     // exStates/edgeCnt/bests hold the previous round
	afMark    []uint32 // id -> epoch it was marked for recomputation
	epoch     uint32   // phase counter (never reset)
	// nodes is the aliveList scratch: the ascending alive ids when
	// nodesValid (maintained incrementally by the per-round retire
	// passes), arbitrary otherwise.
	nodes      []int32
	nodesValid bool
	// edgeCnt and bests describe each alive row: its >= threshold edges
	// to larger ids (the round-stat edge count, owned at the min id) and
	// its best incident edge regardless of threshold. Round 0's init
	// scans every row for them; after that the merge pass maintains them
	// for exactly the rows it stamps dirty — compactRow over what a
	// surviving row keeps, each minted partner it receives, and the owner
	// over the minted row it writes — so init reads them without a scan.
	edgeCnt  []int64
	bests    []edgeRef
	selected []edgeRef // selection output, reused per round
	// mergeTo maps an id to the new id it merges into this round; a
	// surviving id holds -1 and a retired one retiredID, so one load tells
	// a merge walk and compactRow what to do with a neighbour.
	mergeTo []int32
	coef    []float64 // id -> Eq. 4 coefficient this round
	// recomputed, candidates and retired profile the current round for
	// its trace span (endRound): the first and last are reset by each
	// selection, the second by selectVerified.
	recomputed int
	candidates int
	retired    int
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
	// instead of scanning every alive row. The merge stamps exactly the
	// rows whose bests it maintained, which init reads; retire then
	// appends the neighbors that lost a relay, for the exchange only.
	dirtyList []int32
	// chList/chNext are the per-phase changed-row worklists: each phase
	// (init or exchange iteration) appends the rows whose value it
	// changed to chNext, which becomes chList — the input frontier of the
	// next iteration's scatter. Duplicate-free by construction (each row
	// is recomputed once per phase). afList is the scatter output — the
	// rows the exchange iteration must recompute — deduplicated via the
	// afMark epoch stamps.
	chList []int32
	chNext []int32
	afList []int32
	// Merge-pass scratch, reused across rounds: terms holds one owner's
	// minted–minted Eq. 4 terms, mintedEdges the round's minted–minted
	// edges (owner ascending, partner ascending), and inSlot one entry
	// per minted row — first the count of lower minted partners, then
	// the write cursor of the span reserved for them.
	terms       []mmTerm
	mintedEdges []wgraph.Edge
	inSlot      []int32
	// ownOffsets, ownNbrs and ownWts are the arrays the owned CSR copy
	// lives in, kept across clusterings by release: ensureOwned copies
	// into them and reserveTail regrows them.
	ownOffsets []int32
	ownNbrs    []int32
	ownWts     []float64
}

// newState is a fresh clustering state over c.
func newState(c *wgraph.CSR, sizes []int, cfg Config) *state {
	st := new(state)
	st.reset(c, sizes, cfg)
	return st
}

// reset makes st the initial clustering state over c, re-slicing the
// arrays st already holds where their capacity suffices. Every entry a
// clustering can read before writing it is initialised here; arrays that
// grow by append start empty.
func (st *state) reset(c *wgraph.CSR, sizes []int, cfg Config) {
	n := c.NumNodes()
	offsets, nbrs, wts := c.Adj()
	old := *st
	levels := max(cfg.DiffusionRounds, 1)
	*st = state{
		total:   n,
		offsets: offsets,
		nbrs:    nbrs,
		wts:     wts,
		deg:     reuse.Slice(old.deg, n, 2*n),
		ownsCur: false,
		// dirtyEpoch starts above the zero value of fresh dirty stamps:
		// before the first merge nothing is dirty, so round 0's frontier
		// scatter must not see every zero stamp as a match.
		dirtyEpoch:  1,
		size:        reuse.Slice(old.size, n, 2*n),
		alive:       reuse.Slice(old.alive, n, 2*n),
		aliveCount:  n,
		rounds:      cfg.DiffusionRounds,
		threshold:   cfg.StopThreshold,
		exStates:    reuse.Slice(old.exStates, levels, levels),
		afMark:      reuse.Slice(old.afMark, n, 2*n),
		nodes:       old.nodes[:0],
		edgeCnt:     reuse.Slice(old.edgeCnt, n, 2*n),
		bests:       reuse.Slice(old.bests, n, 2*n),
		selected:    old.selected[:0],
		mergeTo:     reuse.Slice(old.mergeTo, n, 2*n),
		coef:        reuse.Slice(old.coef, n, 2*n),
		dirty:       old.dirty[:0],
		dirtyList:   old.dirtyList[:0],
		chList:      old.chList[:0],
		chNext:      old.chNext[:0],
		afList:      old.afList[:0],
		terms:       old.terms[:0],
		mintedEdges: old.mintedEdges[:0],
		inSlot:      old.inSlot[:0],
		ownOffsets:  old.ownOffsets,
		ownNbrs:     old.ownNbrs,
		ownWts:      old.ownWts,
	}
	for it := range st.exStates {
		// Capacity 2n outlasts every mint: a clustering can never create
		// more than n-1 new ids, so these arrays are never reallocated.
		arr := reuse.Slice(st.exStates[it], n, 2*n)
		for i := range arr {
			arr[i] = noEdge
		}
		st.exStates[it] = arr
	}
	clear(st.afMark)
	clear(st.edgeCnt)
	clear(st.coef)
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
}

// release ends a clustering: the owned CSR arrays, regrown or not, stay
// for the next one, and the caller's graph is let go of.
func (st *state) release() {
	if st.ownsCur {
		st.ownOffsets, st.ownNbrs, st.ownWts = st.offsets, st.nbrs, st.wts
	}
	st.offsets, st.nbrs, st.wts = nil, nil, nil
}

// ensureOwned copies the CSR out of the caller's frozen graph, into the
// workspace's arrays, before the first in-place write. One copy per
// clustering: every later round patches the owned arrays directly.
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
	offsets := reuse.Slice(st.ownOffsets, n+1, 2*n+1)
	copy(offsets, st.offsets[:n+1])
	nbrs := reuse.Slice(st.ownNbrs, half, half+half/2)
	copy(nbrs, st.nbrs[:half])
	wts := reuse.Slice(st.ownWts, half, half+half/2)
	copy(wts, st.wts[:half])
	st.offsets, st.nbrs, st.wts = offsets, nbrs, wts
	st.ownsCur = true
}

// aliveList returns the ascending alive cluster ids. After the first
// full build the list is maintained incrementally — each merge drops
// its merged ids and appends its minted ones (replaceMerged), each init
// drops the ids it retired: O(alive) per round, not O(total) — so this
// scan runs once per clustering.
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

// replaceMerged drops the ids the round just merged from the maintained
// alive list and appends the round's minted ids (all alive, all greater
// than every prior id, so the list stays ascending).
func (st *state) replaceMerged(base, newTotal int32) {
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
// count (edges >= threshold) and global best similarity. Only edges >=
// threshold can be known or selected; sub-threshold edges still carry
// what a neighbor knows. The scan reads the CSR arrays directly and every phase
// is memoized across merge rounds (see state.exStates): after the first
// round, init reads only the dirty rows' maintained bests and each
// exchange iteration recomputes only the frontier of cross-round changes.
// Every phase runs inline on the calling goroutine; no allocation per
// diffusion iteration.
func (st *state) selectLocalMaxima() ([]edgeRef, int, float64) {
	nodes := st.aliveList()
	// Repeated diffusion without an intervening merge (no dirty scratch
	// yet) must see an all-clean dirty map, not an out-of-range one —
	// fresh zero stamps never equal a positive dirtyEpoch.
	for len(st.dirty) < st.total {
		st.dirty = append(st.dirty, 0)
	}

	// Init phase: best incident >= threshold edge per node, and the
	// retirement of every node that has none. Cached entries are reused —
	// only dirty rows (adjacency touched by the last merge, minted rows
	// included) can differ from last round, and the merge left them in
	// dirtyList with their bests and edge counts maintained, so the phase
	// reads the worklist's values instead of scanning rows. The first
	// round has no cache: it scans every row, against level arrays that
	// start out all noEdge.
	st.epoch++
	st.retired = 0
	list, scan := st.dirtyList, !st.haveCache
	if scan {
		list, st.haveCache = nodes, true
	}
	st.recomputed = len(list)
	st.chList = st.initRows(list, scan, st.chList[:0])
	// The round statistics (>= threshold edges counted once, at the
	// smaller id) over the alive rows, dropping the ones init retired from
	// the maintained alive list on the way.
	var activeEdges int64
	globalBest := noEdge
	alive := nodes[:0]
	for _, u := range nodes {
		if !st.alive[u] {
			continue
		}
		alive = append(alive, u)
		activeEdges += st.edgeCnt[u]
		if better(st.bests[u], globalBest) {
			globalBest = st.bests[u]
		}
	}
	st.nodes = alive

	// r-1 exchange iterations: take the max over own and neighbors' known
	// edges, reading level it and writing level it+1 so reads only see
	// the previous level. A level entry is recomputed when the node is
	// dirty (its input set changed) or any input value changed cross-
	// round; everything else provably equals the memoized value. The
	// previous phase's changed rows arrive in chList; the scatter walks
	// that list (plus the dirty list) to build afList, and the recompute
	// walks afList — no per-phase stamp scans anywhere. In the first round
	// every level starts out all noEdge, so every row that knows an edge
	// has changed and the scatter lists them all. The r-th exchange is
	// selectVerified's neighbor pass.
	for it := 0; it+1 < st.rounds; it++ {
		st.epoch++
		st.afList = st.scatterList(st.chList, st.dirtyList, st.afList[:0])
		st.recomputed += len(st.afList)
		st.chNext = st.exchangeRows(st.afList, st.exStates[it], st.exStates[it+1], st.chNext[:0])
		st.chList, st.chNext = st.chNext, st.chList
	}
	return st.selectVerified(), int(activeEdges), globalBest.sim
}

// selectVerified is the round's selection. know is the last
// materialized level, r-1 (level 0 when r = 0). A candidate is an edge
// both endpoints know there, found at its smaller endpoint; at r = 0
// every candidate is selected, and for r >= 1 it is selected iff the
// r-th exchange would leave it in place — no neighbor of either endpoint
// knows a better edge (see state.exStates) — which one early-exit pass
// over the two rows decides. Alive rows only list alive or retired
// neighbors, and a retired one knows noEdge, so stale entries of dead
// rows are never read. The alive list ascends and a row emits at most
// its own edge, so the matching comes out in canonical (u, v) order.
func (st *state) selectVerified() []edgeRef {
	know := st.exStates[len(st.exStates)-1]
	selected := st.selected[:0]
	st.candidates = 0
	for _, u := range st.aliveList() {
		e := know[u]
		if e.U() != u || e.sim < st.threshold || know[e.V()] != e {
			continue
		}
		st.candidates++
		if st.rounds == 0 || !(st.outbid(u, e, know) || st.outbid(e.V(), e, know)) {
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

// initRows is the init phase over a worklist: each listed alive row's
// best incident >= threshold edge into level 0 — its best edge, when
// that reaches the threshold. A row whose best edge is below the
// threshold retires instead. With scan set (the first round) the phase
// first computes every listed row's bests and edge count from its row;
// after that the list is the dirty worklist — the rows the last merge
// changed, whose values the merge pass maintained — and every other
// cached entry is provably identical to a full recomputation. Dead list
// entries are skipped. Rows whose level-0 value changed append to out,
// the next iteration's frontier.
func (st *state) initRows(list []int32, scan bool, out []int32) []int32 {
	init := st.exStates[0]
	// retire may append to st.dirtyList, which list can alias: the range
	// reads list's length once, so the rows it appends are not visited.
	for _, u := range list {
		if !st.alive[u] {
			continue
		}
		if scan {
			st.scanRow(u)
		}
		best := st.bests[u]
		if best.sim < st.threshold {
			st.retire(u)
			continue
		}
		if best != init[u] {
			init[u] = best
			out = append(out, u)
		}
	}
	return out
}

// scanRow computes u's bests and edge count from its row. The row
// ascends and so do the canonical keys of its edges, so the first
// maximal weight is the best edge.
func (st *state) scanRow(u int32) {
	bestJ, bestW, cnt := int32(-1), math.Inf(-1), int64(0)
	for j, end := st.offsets[u], st.offsets[u]+st.deg[u]; j < end; j++ {
		w := st.wts[j]
		if w > bestW {
			bestJ, bestW = j, w
		}
		if w >= st.threshold && st.nbrs[j] > u {
			cnt++
		}
	}
	st.bests[u], st.edgeCnt[u] = noEdge, cnt
	if bestJ >= 0 {
		st.bests[u] = mkEdgeRef(u, st.nbrs[bestJ], bestW)
	}
}

// retire removes u, whose best edge is below the threshold, from the
// clustering: it can never merge again — Eq. 4 is reducible, so every
// future similarity of u is at most its best current one — and it stops
// counting as alive. Its degree drops to zero; the merge walks skip it
// and compactRow drops it from a neighbor's row on that row's next
// compaction, so its remaining entries (all below the threshold) are
// read by nothing that can select. It also stops relaying: its
// memoized levels become noEdge, and when r >= 2 and it held anything
// at some level, its alive neighbors join the dirty worklist, so every
// exchange iteration of this round recomputes them without it.
func (st *state) retire(u int32) {
	relayed := false
	for _, lvl := range st.exStates {
		if lvl[u] != noEdge {
			lvl[u], relayed = noEdge, true
		}
	}
	if relayed && st.rounds >= 2 {
		for j, end := st.offsets[u], st.offsets[u]+st.deg[u]; j < end; j++ {
			if v := st.nbrs[j]; st.alive[v] && st.dirty[v] != st.dirtyEpoch {
				st.dirty[v] = st.dirtyEpoch
				st.dirtyList = append(st.dirtyList, v)
			}
		}
	}
	st.alive[u] = false
	st.mergeTo[u] = retiredID
	st.deg[u] = 0
	st.aliveCount--
	st.retired++
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

// exchangeRows recomputes one level for the listed rows — the scatter
// worklist: every row not on it keeps its memoized value, provably what
// a recomputation would produce (identical inputs to last round). dst[u]
// becomes the best of src over u and its neighbors; cross-round changes
// (new value differs from the memoized one) append to out.
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

// mmTerm is one old edge's term in a minted–minted Eq. 4 sum: the
// partner's minted id, the old edge's canonical endpoints packed as in
// edgeRef (they fix the summation order) and the weighted similarity.
type mmTerm struct {
	q    int32
	orig uint64
	val  float64
}

// cmpTerm orders a sum's terms by (partner, old edge) — the
// deterministic summation order.
func cmpTerm(x, y mmTerm) int {
	if x.q != y.q {
		return cmp.Compare(x.q, y.q)
	}
	return cmp.Compare(x.orig, y.orig)
}

// mergeSelected applies a round's matching: mints new cluster ids, emits
// dendrogram merges, and patches the next round's CSR in place.
//
// Each selected pair's owner — the minted id w — walks its two members'
// ascending rows two-pointer style and forms every coalesced edge on the
// spot. A surviving neighbour nb (not merged this round) gets its Eq. 4
// sum from at most two terms, adjacent in the walk with eu's first; the
// owner writes it into w's row and appends w to nb's row, which it
// compacts on the round's first touch (dropping every merged neighbour;
// a row never grows, since each appended minted partner replaces at
// least one merged neighbour). A merged neighbour maps to a minted id q:
// q == w is the internal edge, q < w was emitted by q's owner, and q > w
// contributes up to four terms, which the owner sorts by (q, old edge)
// and sums. Every row therefore comes out ascending — old ids in their
// previous order, then minted partners by id — and the pass costs
// O(merged adjacency), never O(alive edges).
//
// A minted row is laid out at the tail with room for both members' rows
// less the internal edge: surviving partners, then a gap for its lower
// minted partners (counted while the lower owners ran, filled after the
// walk), then its higher minted partners. Dead rows keep their storage
// at degree zero until a tail that would overflow compacts them away.
//
// A retired neighbour is skipped: it gets no entry, and compactRow drops
// it from the rows it still sits in.
//
// The pass also stamps the round's dirty rows for the next round's
// memoized diffusion — the minted rows and every surviving neighbour it
// visits, each once, so dirtyList comes out duplicate-free — and keeps
// their bests and edge counts current as it writes them (see
// state.bests), so the next init reads them without a scan.
func (st *state) mergeSelected(selected []edgeRef, round int, cfg Config, d *dendrogram.Dendrogram) {
	base := int32(st.total)
	newTotal := st.total + len(selected)

	// Extend the per-id arrays for the minted clusters; mergeTo/coef map
	// a merged old cluster to its new id and Eq. 4 coefficient.
	for len(st.mergeTo) < newTotal {
		st.mergeTo = append(st.mergeTo, -1)
		st.afMark = append(st.afMark, 0)
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

	// Lay the minted spans out at the tail.
	st.ensureOwned()
	for len(st.deg) < newTotal {
		st.deg = append(st.deg, 0)
	}
	for len(st.offsets) < newTotal+1 {
		st.offsets = append(st.offsets, 0)
	}
	need := 0
	for _, e := range selected {
		need += int(st.deg[e.U()] + st.deg[e.V()] - 2)
	}
	st.reserveTail(need)
	offsets, nbrs, wts, deg := st.offsets, st.nbrs, st.wts, st.deg
	tail := offsets[st.total]
	for i, e := range selected {
		offsets[base+int32(i)] = tail
		tail += deg[e.U()] + deg[e.V()] - 2
	}
	offsets[newTotal] = tail

	for len(st.dirty) < newTotal {
		st.dirty = append(st.dirty, 0)
	}
	st.dirtyEpoch++
	dirty, dirtyEpoch := st.dirty, st.dirtyEpoch
	dl := st.dirtyList[:0]
	in := st.inSlot[:0]
	for range selected {
		in = append(in, 0)
	}
	st.inSlot = in
	mm := st.mintedEdges[:0]
	for i, e := range selected {
		w := base + int32(i)
		eu, ev := e.U(), e.V()
		jU, endU := offsets[eu], offsets[eu]+deg[eu]
		jV, endV := offsets[ev], offsets[ev]+deg[ev]
		wu, wv := st.coef[eu], st.coef[ev]
		dirty[w] = dirtyEpoch // minted rows are always fresh
		dl = append(dl, w)
		p := offsets[w]
		terms := st.terms[:0]
		// w's best edge and its >= threshold edges to higher ids, formed
		// as its surviving and higher minted partners are written (in
		// ascending key order, so the first maximal weight wins); the
		// lower minted partners join as their slots fill below.
		best, cnt := noEdge, int64(0)
		for jU < endU || jV < endV {
			// The next neighbour in id order, from either row or both.
			nb := int32(math.MaxInt32)
			if jU < endU {
				nb = nbrs[jU]
			}
			if jV < endV && nbrs[jV] < nb {
				nb = nbrs[jV]
			}
			var su, sv float64
			hasU := jU < endU && nbrs[jU] == nb
			if hasU {
				su = wts[jU]
				jU++
			}
			hasV := jV < endV && nbrs[jV] == nb
			if hasV {
				sv = wts[jV]
				jV++
			}
			q := st.mergeTo[nb]
			if q == -1 {
				// The explicit conversions keep each product rounded, so
				// no platform fuses the sum into one multiply-add.
				var sum float64
				switch {
				case hasU && hasV:
					sum = float64(wu*su) + float64(wv*sv)
				case hasU:
					sum = wu * su
				default:
					sum = wv * sv
				}
				if dirty[nb] != dirtyEpoch {
					dirty[nb] = dirtyEpoch
					dl = append(dl, nb)
					st.compactRow(nb)
				}
				nbrs[p], wts[p] = nb, sum
				p++
				if sum > best.sim {
					best = mkEdgeRef(nb, w, sum)
				}
				t := offsets[nb] + deg[nb]
				nbrs[t], wts[t] = w, sum
				deg[nb]++
				// nb < w, so the edge is nb's to count and the last
				// (highest-keyed) entry of its row.
				if sum > st.bests[nb].sim {
					st.bests[nb] = mkEdgeRef(nb, w, sum)
				}
				if sum >= st.threshold {
					st.edgeCnt[nb]++
				}
				continue
			}
			if q <= w {
				continue // retired, internal edge, or q's owner emitted it
			}
			if hasU {
				terms = append(terms, mmTerm{q: q, orig: mkEdgeRef(eu, nb, 0).key, val: wu * st.coef[nb] * su})
			}
			if hasV {
				terms = append(terms, mmTerm{q: q, orig: mkEdgeRef(ev, nb, 0).key, val: wv * st.coef[nb] * sv})
			}
		}
		// Reserve the lower minted partners' slots, then sum and write
		// the higher ones in partner order.
		inAt := p
		p += in[i]
		in[i] = inAt
		slices.SortFunc(terms, cmpTerm)
		for k := 0; k < len(terms); {
			q := terms[k].q
			sum := 0.0
			for ; k < len(terms) && terms[k].q == q; k++ {
				sum += terms[k].val
			}
			nbrs[p], wts[p] = q, sum
			p++
			if sum > best.sim {
				best = mkEdgeRef(w, q, sum)
			}
			if sum >= st.threshold {
				cnt++
			}
			in[q-base]++
			mm = append(mm, wgraph.Edge{U: w, V: q, W: sum})
		}
		deg[w] = p - offsets[w]
		st.bests[w], st.edgeCnt[w] = best, cnt
		st.terms = terms[:0]
	}
	st.dirtyList = dl
	st.mintedEdges = mm[:0]
	// Fill the reserved slots: mm runs owner-ascending, so each minted
	// row receives its lower partners ascending.
	for _, e := range mm {
		k := e.V - base
		nbrs[in[k]], wts[in[k]] = e.U, e.W
		in[k]++
		if r := mkEdgeRef(e.U, e.V, e.W); better(r, st.bests[e.V]) {
			st.bests[e.V] = r
		}
	}

	// Kill the merged clusters and clear this round's merge map; dead
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
	st.replaceMerged(base, int32(newTotal))
	st.total = newTotal
}

// compactRow drops u's merged and retired neighbours in place, keeping
// the rest in order, and recomputes u's bests and edge count over what
// it keeps — scanRow's loop fused into the compaction, which beat
// compacting and then scanning by ≈5 % of a Cluster call.
func (st *state) compactRow(u int32) {
	lo := st.offsets[u]
	wi := lo
	bestJ, bestW, cnt := int32(-1), math.Inf(-1), int64(0)
	for j, end := lo, lo+st.deg[u]; j < end; j++ {
		v := st.nbrs[j]
		if st.mergeTo[v] != -1 {
			continue
		}
		w := st.wts[j]
		st.nbrs[wi], st.wts[wi] = v, w
		if w > bestW {
			bestJ, bestW = wi, w
		}
		if w >= st.threshold && v > u {
			cnt++
		}
		wi++
	}
	st.deg[u] = wi - lo
	st.bests[u], st.edgeCnt[u] = noEdge, cnt
	if bestJ >= 0 {
		st.bests[u] = mkEdgeRef(u, st.nbrs[bestJ], bestW)
	}
}

// reserveTail makes room for need entries past the tail high-water mark
// offsets[total]. When they do not fit, the alive rows first move down
// in id order — which is span order, since spans are laid out as ids
// are minted — closing the dead rows' spans and the minted rows' slack;
// the arrays regrow only if the live adjacency still leaves too little.
func (st *state) reserveTail(need int) {
	tail := int(st.offsets[st.total])
	if tail+need > cap(st.nbrs) {
		p := int32(0)
		for _, u := range st.aliveList() {
			lo, d := st.offsets[u], st.deg[u]
			copy(st.nbrs[p:p+d], st.nbrs[lo:lo+d])
			copy(st.wts[p:p+d], st.wts[lo:lo+d])
			st.offsets[u] = p
			p += d
		}
		st.offsets[st.total] = p
		tail = int(p)
	}
	if tail+need > cap(st.nbrs) {
		size := tail + need
		nbrs := make([]int32, size, size+size/2)
		copy(nbrs, st.nbrs[:tail])
		wts := make([]float64, size, size+size/2)
		copy(wts, st.wts[:tail])
		st.nbrs, st.wts = nbrs, wts
		return
	}
	st.nbrs, st.wts = st.nbrs[:tail+need], st.wts[:tail+need]
}
