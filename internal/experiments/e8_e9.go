package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"shoal/internal/bsp"
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
	t.Notes = append(t.Notes, "extension: this ablation is not in the paper (DESIGN.md 4)")
	return t, nil
}

// E9BSP verifies the ODPS substitution: the paper deploys Parallel HAC on
// a distributed graph platform, and the diffusion protocol written as a
// Pregel vertex program (diffusionProgram, on internal/bsp) must select
// exactly the matching phac.Diffuse does — on one engine shard per CPU,
// edge-balanced, with and without chaotic delivery. The product build
// runs neither: phac.Cluster memoizes the cascade across merge rounds on
// one goroutine, which beat every parallel variant measured (see the
// phac package doc).
func E9BSP(sc Scale, seed uint64) (*Table, error) {
	_, b, err := buildSystem(sc, seed)
	if err != nil {
		return nil, err
	}
	g := b.Graph
	placed := bsp.Config{Bounds: edgeBalancedBounds(g, runtime.GOMAXPROCS(0))}
	chaotic := placed
	chaotic.Chaos = &bsp.Chaos{Seed: seed, ShuffleInbox: true, StallBatches: true}
	t := &Table{
		ID:         "E9",
		Title:      "BSP vertex program vs phac.Diffuse (ODPS substitution check)",
		PaperClaim: "Parallel HAC deployed on the Alibaba distributed graph platform (ODPS)",
		Header:     []string{"r", "backend", "selected", "wall", "identical"},
	}
	for _, r := range []int{0, 1, 2, 3} {
		start := time.Now()
		direct, err := phac.Diffuse(g, r, stopTh)
		if err != nil {
			return nil, err
		}
		directWall := time.Since(start)

		start = time.Now()
		viaBSP, err := diffuseBSP(g, r, stopTh, placed)
		if err != nil {
			return nil, err
		}
		bspWall := time.Since(start)

		viaChaos, err := diffuseBSP(g, r, stopTh, chaotic)
		if err != nil {
			return nil, err
		}
		same := reflect.DeepEqual(direct, viaBSP) && reflect.DeepEqual(direct, viaChaos)
		t.Rows = append(t.Rows,
			[]string{itoa(r), "shared-memory", itoa(len(direct)), directWall.Round(time.Microsecond).String(), ""},
			[]string{itoa(r), "bsp(+chaos)", itoa(len(viaBSP)), bspWall.Round(time.Microsecond).String(), fmt.Sprintf("%v", same)},
		)
		if !same {
			t.Notes = append(t.Notes, fmt.Sprintf("MISMATCH at r=%d", r))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("bsp: %d engine shards (edge-balanced row ranges); chaos = shuffled inboxes + stalled batches", len(placed.Bounds)-1),
		"identical: BSP (with and without chaotic delivery) equals shared-memory result")
	return t, nil
}

// diffusionProgram is Parallel HAC's diffusion as a vertex program over
// the CSR rows: superstep 0 initializes each vertex with its best
// incident >= threshold edge and broadcasts it; supersteps 1..rounds fold
// the inbox maximum and re-broadcast only when the fold changed the
// vertex's known edge (every neighbor already folded the old value, and
// max-exchange is monotone, so suppressed resends are provably
// absorbing). A vertex with nothing new votes to halt and is reactivated
// by the next incoming message. The fold is order-independent, so the
// program is correct under chaotic delivery, and Combine gives the
// engine the sender-side max-fold.
type diffusionProgram struct {
	offsets, nbrs []int32
	wts           []float64
	rounds        int
	threshold     float64
	know          []phac.Edge
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

// Combine is the sender-side max-fold (bsp.Combiner).
func (p *diffusionProgram) Combine(acc, m phac.Edge) phac.Edge {
	if better(m, acc) {
		return m
	}
	return acc
}

func (p *diffusionProgram) Compute(step int, v bsp.VertexID, inbox []phac.Edge, out *bsp.Outbox[phac.Edge]) bool {
	u := int32(v)
	lo, hi := p.offsets[u], p.offsets[u+1]
	changed := false
	if step == 0 {
		best := noEdge
		for j := lo; j < hi; j++ {
			if p.wts[j] < p.threshold {
				continue
			}
			cand := phac.Edge{U: min(u, p.nbrs[j]), V: max(u, p.nbrs[j]), Sim: p.wts[j]}
			if better(cand, best) {
				best = cand
			}
		}
		p.know[u] = best
		changed = best != noEdge
	} else {
		for _, m := range inbox {
			if better(m, p.know[u]) {
				p.know[u] = m
				changed = true
			}
		}
	}
	if changed && step < p.rounds {
		out.SendMany(p.nbrs[lo:hi], p.know[u])
		return false
	}
	return true
}

// edgeBalancedBounds cuts c's rows into at most `shards` contiguous
// ranges (bsp.Config.Bounds) holding about equal numbers of adjacency
// entries rather than of rows — bound i is the first row with i/shards
// of the entries in the rows before it — so a skewed degree distribution
// yields uneven, possibly empty, ranges.
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

// diffuseBSP runs diffusionProgram over c on a fresh engine and selects
// the locally-maximal matching the way phac.Diffuse does: an edge both
// of its endpoints still know, found at its smaller endpoint — so the
// result comes out sorted by (U, V).
func diffuseBSP(c *wgraph.CSR, rounds int, threshold float64, cfg bsp.Config) ([]phac.Edge, error) {
	offsets, nbrs, wts := c.Adj()
	p := &diffusionProgram{
		offsets: offsets, nbrs: nbrs, wts: wts,
		rounds: rounds, threshold: threshold,
		know: make([]phac.Edge, c.NumNodes()),
	}
	eng, err := bsp.New[phac.Edge](c.NumNodes(), p, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if _, err := eng.Run(); err != nil {
		return nil, err
	}
	var sel []phac.Edge
	for u, e := range p.know {
		if e.U == int32(u) && e.Sim >= threshold && p.know[e.V] == e {
			sel = append(sel, e)
		}
	}
	return sel, nil
}
