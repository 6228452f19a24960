package phac

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"shoal/internal/dendrogram"
	"shoal/internal/wgraph"
	"shoal/internal/wgraph/wgraphtest"
)

// contracted materializes the state's current graph for the eager
// oracle, as the next selection sees it: the alive rows as they stand,
// less every retired cluster — those already retired, whose entries
// neighbours' rows may still hold, and those with no edge >= threshold,
// which the next init retires. Dead and retired ids are left isolated.
func contracted(t *testing.T, st *state) *wgraph.CSR {
	t.Helper()
	keep := make([]bool, st.total)
	for _, u := range st.aliveList() {
		for j, end := st.offsets[u], st.offsets[u]+st.deg[u]; j < end; j++ {
			if st.alive[st.nbrs[j]] && st.wts[j] >= st.threshold {
				keep[u] = true
			}
		}
	}
	var edges []wgraph.Edge
	for _, u := range st.aliveList() {
		for j, end := st.offsets[u], st.offsets[u]+st.deg[u]; j < end; j++ {
			if v := st.nbrs[j]; u < v && keep[u] && keep[v] {
				edges = append(edges, wgraph.Edge{U: u, V: v, W: st.wts[j]})
			}
		}
	}
	return wgraphtest.Build(t, st.total, edges...)
}

// matchingShape is a perfect matching of 10 pairs, 2i — 2i+1 only: every
// node knows its own edge after init, and no exchange changes anything.
func matchingShape(t *testing.T) *wgraph.CSR {
	var edges []wgraph.Edge
	for i := int32(0); i < 20; i += 2 {
		edges = append(edges, wgraph.Edge{U: i, V: i + 1, W: 0.5 + float64(i)/100})
	}
	return wgraphtest.Build(t, 20, edges...)
}

// chainShape is the path 0-1-…-8 with weights increasing along it: the
// top edge (7, 8) travels one hop per exchange iteration, so the
// exchange stops changing anything after a few iterations.
func chainShape(t *testing.T) *wgraph.CSR {
	var edges []wgraph.Edge
	for i := int32(0); i+1 < 9; i++ {
		edges = append(edges, wgraph.Edge{U: i, V: i + 1, W: 0.3 + float64(i)/20})
	}
	return wgraphtest.Build(t, 9, edges...)
}

// TestFrontierCollapseMidRound pins Diffuse on graphs whose exchange
// converges long before the round budget — the matching changes nothing
// after init, the chain stops changing mid-loop — to answers derived by
// hand: every pair of the matching is its endpoints' only edge, and only
// the chain's top edge (7, 8) is mutual-best, whatever r.
func TestFrontierCollapseMidRound(t *testing.T) {
	var matching []Edge
	for i := int32(0); i < 20; i += 2 {
		matching = append(matching, Edge{U: i, V: i + 1, Sim: 0.5 + float64(i)/100})
	}
	for _, tc := range []struct {
		name string
		g    *wgraph.CSR
		want []Edge
	}{
		{"matching", matchingShape(t), matching},
		{"chain", chainShape(t), []Edge{{U: 7, V: 8, Sim: 0.3 + float64(7)/20}}},
	} {
		for _, r := range []int{0, 1, 2, 6, 12} {
			got, err := Diffuse(tc.g, r, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s r=%d: Diffuse selected %v, want %v", tc.name, r, got, tc.want)
			}
		}
	}
}

// TestClusterSelectionMatchesDiffuseEveryRound is the eager oracle for
// the lazily verified last exchange: at every merge round the matching
// Cluster's selection returns must equal — edge for
// edge — what the standalone Diffuse computes by materializing all r
// levels over the same contracted graph. On the random graphs the
// threshold leaves sub-threshold edges in the graph (they carry
// diffusion but never merge) and sizes are non-unit, so Eq. 4 weights
// differ per merge. The matching and chain shapes converge long before
// r exchanges: the memoized rounds must survive a frontier that
// collapses to nothing mid-round.
func TestClusterSelectionMatchesDiffuseEveryRound(t *testing.T) {
	type graphCase struct {
		name      string
		g         *wgraph.CSR
		sizes     []int
		threshold float64
		minRounds int // rounds the clustering must run, so the oracle sees memoized ones
	}
	cases := []graphCase{
		{"matching", matchingShape(t), nil, 0.1, 1},
		{"chain", chainShape(t), nil, 0.1, 3},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		sizes := make([]int, 80)
		for i := range sizes {
			sizes[i] = 1 + rng.IntN(5)
		}
		cases = append(cases, graphCase{fmt.Sprintf("seed %d", seed), wgraphtest.Random(80, 220, seed), sizes, 0.3, 3})
	}
	for _, r := range []int{0, 1, 2, 3, 6} {
		t.Run(fmt.Sprintf("r%d", r), func(t *testing.T) {
			for _, tc := range cases {
				cfg := Config{StopThreshold: tc.threshold, DiffusionRounds: r}
				st := newState(tc.g, tc.sizes, cfg)
				d := &dendrogram.Dendrogram{Leaves: tc.g.NumNodes()}
				for round := 0; ; round++ {
					want, err := Diffuse(contracted(t, st), r, tc.threshold)
					if err != nil {
						t.Fatal(err)
					}
					selected, _, _ := st.selectLocalMaxima()
					var got []Edge
					for _, e := range selected {
						got = append(got, Edge{U: e.U(), V: e.V(), Sim: e.sim})
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s round %d: selection\n%v\ndiffers from eager Diffuse\n%v", tc.name, round, got, want)
					}
					if st.candidates < len(selected) {
						t.Fatalf("%s round %d: %d candidates verified for %d selected", tc.name, round, st.candidates, len(selected))
					}
					if len(selected) == 0 {
						if round < tc.minRounds {
							t.Fatalf("%s: clustering ended after %d rounds — the oracle saw too few", tc.name, round)
						}
						break
					}
					st.mergeSelected(selected, round, cfg, d)
				}
			}
		})
	}
}

// TestRoundActiveEdgesMatchBruteForce holds each round's edge count —
// RoundStat.ActiveEdges and the activeEdges span attribute — to a
// brute-force count of the contracted graph's edges at or above the
// threshold. Rows keep every Eq. 4 sum, so from the first merge on they
// hold sub-threshold edges, which must not count.
func TestRoundActiveEdgesMatchBruteForce(t *testing.T) {
	const threshold = 0.3
	sub := 0
	for _, r := range []int{0, 2} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := wgraphtest.Random(60, 160, seed)
			cfg := Config{StopThreshold: threshold, DiffusionRounds: r}
			st := newState(g, nil, cfg)
			d := &dendrogram.Dendrogram{Leaves: 60}
			for round := 0; ; round++ {
				want := 0
				for _, e := range contracted(t, st).Edges() {
					if e.W >= threshold {
						want++
					} else if round > 0 {
						sub++
					}
				}
				selected, active, _ := st.selectLocalMaxima()
				if active != want {
					t.Fatalf("r %d seed %d round %d: %d active edges, brute force counts %d", r, seed, round, active, want)
				}
				if len(selected) == 0 {
					break
				}
				st.mergeSelected(selected, round, cfg, d)
			}
		}
	}
	if sub == 0 {
		t.Fatal("no merge left a sub-threshold edge: the count was never tested against one")
	}
}
