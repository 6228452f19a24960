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

// TestClusterSelectionMatchesDiffuseEveryRound is the eager oracle for
// the lazily verified last exchange: at every merge round the matching
// Cluster's selection returns must equal — edge for
// edge — what the standalone Diffuse computes by materializing all r
// levels over the same contracted graph. The threshold leaves
// sub-threshold edges in the graph (they carry diffusion but never
// merge) and sizes are non-unit, so Eq. 4 weights differ per merge.
func TestClusterSelectionMatchesDiffuseEveryRound(t *testing.T) {
	const threshold = 0.3
	for _, r := range []int{0, 1, 2, 3, 6} {
		t.Run(fmt.Sprintf("r%d", r), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				g := wgraphtest.Random(80, 220, seed)
				rng := rand.New(rand.NewPCG(seed, 99))
				sizes := make([]int, 80)
				for i := range sizes {
					sizes[i] = 1 + rng.IntN(5)
				}
				cfg := Config{StopThreshold: threshold, DiffusionRounds: r}
				st := newState(g, sizes, cfg)
				d := &dendrogram.Dendrogram{Leaves: 80}
				for round := 0; ; round++ {
					want, err := Diffuse(contracted(t, st), r, threshold)
					if err != nil {
						t.Fatal(err)
					}
					selected, _, _ := st.selectLocalMaxima()
					var got []Edge
					for _, e := range selected {
						got = append(got, Edge{U: e.U(), V: e.V(), Sim: e.sim})
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d round %d: selection\n%v\ndiffers from eager Diffuse\n%v", seed, round, got, want)
					}
					if st.candidates < len(selected) {
						t.Fatalf("seed %d round %d: %d candidates verified for %d selected", seed, round, st.candidates, len(selected))
					}
					if len(selected) == 0 {
						if round < 3 {
							t.Fatalf("seed %d: clustering ended after %d rounds — the oracle saw no memoized round", seed, round)
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
