package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"shoal/internal/eval"
	"shoal/internal/model"
	"shoal/internal/modularity"
	"shoal/internal/phac"
	"shoal/internal/wgraph"
)

// E8Linkage ablates the Eq. 4 √-size normalization against two alternative
// merge-update rules. The paper asserts the √ normalization ("embedding
// nodes into a two-dimensional space") without measurement; this table
// supplies the comparison.
func E8Linkage(sc Scale, seed uint64) (*Table, error) {
	_, b, err := buildSystem(sc, seed)
	if err != nil {
		return nil, err
	}
	g := b.Graph
	sizes := make([]int, len(b.Entities.Entities))
	truth := make([]model.ScenarioID, len(b.Entities.Entities))
	for i := range sizes {
		sizes[i] = b.Entities.Entities[i].Size()
		truth[i] = b.Entities.Entities[i].Scenario
	}
	t := &Table{
		ID:         "E8",
		Title:      "Linkage ablation: Eq. 4 sqrt-size vs alternatives",
		PaperClaim: "Eq. 4 uses sqrt normalization (no measured comparison in the paper)",
		Header:     []string{"linkage", "merges", "rounds", "modularity", "NMI", "purity"},
	}
	for _, linkage := range []phac.Linkage{
		phac.LinkageSqrtSize, phac.LinkageUnweighted, phac.LinkageSizeProportional,
	} {
		res, err := phac.Cluster(context.Background(), g, sizes, phac.Config{
			StopThreshold: stopTh, DiffusionRounds: 2, Linkage: linkage,
		})
		if err != nil {
			return nil, err
		}
		labels := res.Dendrogram.CutAt(stopTh)
		q, err := modularity.Compute(g, labels)
		if err != nil {
			return nil, err
		}
		part, err := eval.LabelsPartition(labels, truth)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			linkage.String(), itoa(len(res.Dendrogram.Merges)), itoa(len(res.Rounds)),
			f3(q), f3(part.NMI()), f3(part.Purity()),
		})
	}
	t.Notes = append(t.Notes, "extension: this ablation is not in the paper")
	return t, nil
}

// e9Shards is the number of row ranges E9 places the graph on. It is a
// constant, not the core count: diffuseBSP starts no goroutine, so the
// table reads the same on every machine.
const e9Shards = 8

// E9BSP verifies the ODPS substitution: the paper deploys Parallel HAC on
// a distributed graph platform, and the diffusion protocol written as a
// Pregel vertex program (diffuseBSP) must select exactly the matching
// phac.Diffuse does — on e9Shards edge-balanced row ranges, with and
// without chaotic delivery — or the experiment fails. The supersteps and
// messages columns are the protocol's cost, which is what would carry
// over to a real engine; wall time of this serial loop would not. The
// product build runs neither: phac.Cluster memoizes the cascade across
// merge rounds on one goroutine, which beat every parallel variant
// measured (see the phac package doc).
func E9BSP(sc Scale, seed uint64) (*Table, error) {
	_, b, err := buildSystem(sc, seed)
	if err != nil {
		return nil, err
	}
	g := b.Graph
	bounds := edgeBalancedBounds(g, e9Shards)
	t := &Table{
		ID:         "E9",
		Title:      "Pregel vertex program vs phac.Diffuse (ODPS substitution check)",
		PaperClaim: "Parallel HAC deployed on the Alibaba distributed graph platform (ODPS)",
		Header:     []string{"r", "backend", "selected", "supersteps", "messages", "identical"},
	}
	rs := []int{0, 1, 2, 3}
	var lastSent int // messages at the deepest r, for the note
	for _, r := range rs {
		direct, err := phac.Diffuse(g, r, stopTh)
		if err != nil {
			return nil, err
		}
		plain, computed, sent, err := diffuseBSP(g, r, stopTh, bounds, chaos{})
		if err != nil {
			return nil, err
		}
		chaotic, _, _, err := diffuseBSP(g, r, stopTh, bounds, chaos{seed: seed, shuffle: true, stall: true})
		if err != nil {
			return nil, err
		}
		for _, sel := range [][]phac.Edge{plain, chaotic} {
			if diff := firstDiff(sel, direct); diff != "" {
				return nil, fmt.Errorf("E9: vertex program differs from phac.Diffuse at r=%d: %s", r, diff)
			}
		}
		lastSent = sent
		t.Rows = append(t.Rows,
			[]string{itoa(r), "shared-memory", itoa(len(direct)), "", "", ""},
			[]string{itoa(r), "bsp(+chaos)", itoa(len(direct)), itoa(len(computed)), itoa(sent), "true"},
		)
	}
	last := rs[len(rs)-1]
	t.Notes = append(t.Notes,
		fmt.Sprintf("bsp: %d edge-balanced row ranges, one serial superstep loop; chaos = envelopes shuffled inside every batch + batches folded in shuffled order", len(bounds)-1),
		fmt.Sprintf("messages: changed-only sends; broadcasting every vertex's edge every superstep would send r*2E = r*%d (r=%d: %d sent, bound %d)",
			2*g.NumEdges(), last, lastSent, last*2*g.NumEdges()),
		"identical: the vertex program (with and without chaotic delivery) equals the shared-memory result; a mismatch fails the experiment")
	return t, nil
}

// firstDiff describes the first position at which got departs from want,
// or returns "" when they are equal.
func firstDiff(got, want []phac.Edge) string {
	for i := range max(len(got), len(want)) {
		switch {
		case i >= len(got):
			return fmt.Sprintf("missing %+v", want[i])
		case i >= len(want):
			return fmt.Sprintf("extra %+v", got[i])
		case got[i] != want[i]:
			return fmt.Sprintf("selected %+v, want %+v", got[i], want[i])
		}
	}
	return ""
}

// noEdge is what a vertex with no incident >= threshold edge knows; it
// loses to every real edge.
var noEdge = phac.Edge{U: -1, V: -1, Sim: math.Inf(-1)}

// better is phac's diffusion total order: higher similarity first, ties
// to the smaller canonical (U, V).
func better(a, b phac.Edge) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// edgeBalancedBounds cuts c's rows into at most `shards` contiguous
// ranges holding about equal numbers of adjacency entries rather than of
// rows — bound i is the first row with i/shards of the entries in the
// rows before it — so a skewed degree distribution yields uneven,
// possibly empty, ranges.
func edgeBalancedBounds(c *wgraph.CSR, shards int) []int32 {
	offsets, _, _ := c.Adj()
	n := c.NumNodes()
	shards = max(1, min(shards, n))
	bounds := make([]int32, shards+1)
	u := 0
	for i := 1; i < shards; i++ {
		for u < n && int64(offsets[u])*int64(shards) < int64(offsets[n])*int64(i) {
			u++
		}
		bounds[i] = int32(u)
	}
	bounds[shards] = int32(n)
	return bounds
}

// chaos is the delivery disorder diffuseBSP injects at the barrier:
// shuffle permutes the envelopes inside every (source, destination)
// batch, stall the order a destination folds its source batches in —
// cross-host batches arriving late. The zero value delivers in canonical
// (source shard, sender row, send) order.
type chaos struct {
	seed           uint64
	shuffle, stall bool
}

// envelope is one message in flight: the edge a vertex knows, addressed
// to one of its neighbors.
type envelope struct {
	to int32
	e  phac.Edge
}

// diffuseBSP is Parallel HAC's diffusion as a Pregel vertex program over
// the CSR rows, run on a synchronous superstep loop: shard s owns rows
// [bounds[s], bounds[s+1]). Superstep 0 initializes each vertex with its
// best incident >= threshold edge and broadcasts it; supersteps
// 1..rounds fold the inbox maximum and re-broadcast only when the fold
// changed the vertex's known edge (every neighbor already folded the old
// value, and max-exchange is monotone, so suppressed resends are
// provably absorbing). A vertex with nothing new votes to halt and is
// reactivated by the next incoming message; the run ends on quiescence —
// every vertex halted, nothing in flight — which a correct program
// reaches by superstep rounds+1, so running past it is an error. The
// inbox fold is a maximum under a total order, hence independent of
// delivery order: ch may scramble it freely.
//
// Selection is phac.Diffuse's: an edge both of its endpoints still know,
// found at its smaller endpoint, so sel comes out sorted by (U, V).
// computed[i] is the number of vertices superstep i ran and messages the
// total number of envelopes delivered.
func diffuseBSP(c *wgraph.CSR, rounds int, threshold float64, bounds []int32, ch chaos) (sel []phac.Edge, computed []int, messages int, err error) {
	offsets, nbrs, wts := c.Adj()
	n, shards := c.NumNodes(), len(bounds)-1
	owner := make([]int, n)
	for s := range shards {
		for u := bounds[s]; u < bounds[s+1]; u++ {
			owner[u] = s
		}
	}
	know := make([]phac.Edge, n)
	inbox := make([]phac.Edge, n) // the folded message per vertex; noEdge = none arrived
	awake := make([]bool, n)      // declined to halt at its last superstep
	for u := range n {
		inbox[u], awake[u] = noEdge, true // every vertex is eligible at superstep 0
	}
	out := make([][][]envelope, shards) // out[src][dst] is one batch
	for s := range out {
		out[s] = make([][]envelope, shards)
	}
	order := make([]int, shards) // the order a destination folds its source batches in
	for s := range order {
		order[s] = s
	}
	rng := rand.New(rand.NewPCG(ch.seed, 0x57A11ED))

	for step, live := 0, n; live > 0; step++ {
		if step > rounds {
			return nil, nil, 0, fmt.Errorf("diffuseBSP: %d vertices or messages still live past superstep %d", live, rounds)
		}
		// Compute: every shard runs its eligible vertices in ascending
		// row order and batches what they send per destination shard.
		ran := 0
		live = 0
		for s := range shards {
			for u := bounds[s]; u < bounds[s+1]; u++ {
				if !awake[u] && inbox[u] == noEdge {
					continue
				}
				ran++
				lo, hi := offsets[u], offsets[u+1]
				changed := false
				if step == 0 {
					know[u] = noEdge
					for j := lo; j < hi; j++ {
						if wts[j] < threshold {
							continue
						}
						cand := phac.Edge{U: min(u, nbrs[j]), V: max(u, nbrs[j]), Sim: wts[j]}
						if better(cand, know[u]) {
							know[u], changed = cand, true
						}
					}
				} else if better(inbox[u], know[u]) {
					know[u], changed = inbox[u], true
				}
				awake[u] = changed && step < rounds
				if !awake[u] {
					continue
				}
				live++
				for _, v := range nbrs[lo:hi] {
					d := owner[v]
					out[s][d] = append(out[s][d], envelope{to: v, e: know[u]})
				}
			}
		}
		computed = append(computed, ran)
		// Barrier: every destination folds its source batches into one
		// message per vertex.
		for u := range inbox {
			inbox[u] = noEdge
		}
		for d := range shards {
			if ch.stall {
				rng.Shuffle(shards, func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			for _, s := range order {
				batch := out[s][d]
				if ch.shuffle {
					rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				}
				for _, m := range batch {
					if better(m.e, inbox[m.to]) {
						inbox[m.to] = m.e
					}
				}
				messages += len(batch)
				live += len(batch)
				out[s][d] = batch[:0]
			}
		}
	}
	for u, e := range know {
		if e.U == int32(u) && e.Sim >= threshold && know[e.V] == e {
			sel = append(sel, e)
		}
	}
	return sel, computed, messages, nil
}
