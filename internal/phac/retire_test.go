package phac

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"shoal/internal/dendrogram"
	"shoal/internal/wgraph"
	"shoal/internal/wgraph/wgraphtest"
)

// checkScan holds every alive row's maintained values to a fresh scan of
// that row that skips retired ids: bests and edgeCnt always, and level 0
// of the diffusion once the round's init has run. An alive row may list
// alive and retired ids, never a dead one.
func checkScan(t *testing.T, st *state, retired map[int32]bool, withInit bool, where string) {
	t.Helper()
	for _, u := range st.aliveList() {
		best, cnt := noEdge, int64(0)
		for j, end := st.offsets[u], st.offsets[u]+st.deg[u]; j < end; j++ {
			v, w := st.nbrs[j], st.wts[j]
			if retired[v] {
				continue
			}
			if !st.alive[v] {
				t.Fatalf("%s: row %d lists dead id %d", where, u, v)
			}
			if e := mkEdgeRef(u, v, w); better(e, best) {
				best = e
			}
			if w >= st.threshold && u < v {
				cnt++
			}
		}
		if st.bests[u] != best || st.edgeCnt[u] != cnt {
			t.Fatalf("%s: row %d maintains best %+v and %d edges, a scan finds %+v and %d",
				where, u, st.bests[u], st.edgeCnt[u], best, cnt)
		}
		if !withInit {
			continue
		}
		if best.sim < st.threshold {
			t.Fatalf("%s: row %d is alive with best edge %v below the threshold", where, u, best.sim)
		}
		if st.exStates[0][u] != best {
			t.Fatalf("%s: row %d holds level 0 %+v, a scan finds %+v", where, u, st.exStates[0][u], best)
		}
	}
}

// TestMaintainedBestsMatchScan holds the values the merge pass maintains
// in place of an init scan — each alive row's best edge, its >= threshold
// edge count and its level-0 diffusion state — to a fresh scan of the
// row after every init and every merge, at r = 0 … 3. The threshold
// leaves sub-threshold sums in the rows and sizes are non-unit, so Eq. 4
// weights differ per merge. It also checks that no retired id is a
// merge endpoint in any later round.
func TestMaintainedBestsMatchScan(t *testing.T) {
	const threshold = 0.3
	for r := 0; r <= 3; r++ {
		t.Run(fmt.Sprintf("r%d", r), func(t *testing.T) {
			retiredTotal := 0
			for seed := uint64(1); seed <= 4; seed++ {
				g := wgraphtest.Random(90, 260, seed)
				rng := rand.New(rand.NewPCG(seed, 7))
				sizes := make([]int, 90)
				for i := range sizes {
					sizes[i] = 1 + rng.IntN(5)
				}
				cfg := Config{StopThreshold: threshold, DiffusionRounds: r}
				st := newState(g, sizes, cfg)
				d := &dendrogram.Dendrogram{Leaves: 90}
				retired := map[int32]bool{}
				for round := 0; ; round++ {
					before := append([]int32(nil), st.aliveList()...)
					selected, _, _ := st.selectLocalMaxima()
					n := 0
					for _, u := range before {
						if !st.alive[u] {
							retired[u] = true
							n++
						}
					}
					if n != st.retired {
						t.Fatalf("seed %d round %d: %d rows left the alive set, retired counts %d", seed, round, n, st.retired)
					}
					retiredTotal += n
					checkScan(t, st, retired, true, fmt.Sprintf("seed %d round %d init", seed, round))
					for _, e := range selected {
						if retired[e.U()] || retired[e.V()] {
							t.Fatalf("seed %d round %d: retired cluster merges in %+v", seed, round, e)
						}
					}
					if len(selected) == 0 {
						break
					}
					st.mergeSelected(selected, round, cfg, d)
					checkScan(t, st, retired, false, fmt.Sprintf("seed %d round %d merge", seed, round))
				}
			}
			if retiredTotal == 0 {
				t.Fatal("no cluster retired: the retire path was never tested")
			}
		})
	}
}

// TestEdgeAtThresholdMerges pins the boundary between retiring and
// merging: a cluster retires when its best edge is below the stop
// threshold, and an edge exactly at the threshold still merges.
func TestEdgeAtThresholdMerges(t *testing.T) {
	const threshold = 0.35
	g := wgraphtest.Build(t, 5, []wgraph.Edge{
		{U: 0, V: 1, W: 0.9}, {U: 1, V: 2, W: 0.1},
		{U: 2, V: 3, W: threshold}, {U: 3, V: 4, W: 0.2},
	}...)
	for r := 0; r <= 2; r++ {
		cfg := Config{StopThreshold: threshold, DiffusionRounds: r}
		st := newState(g, nil, cfg)
		st.selectLocalMaxima()
		if !st.alive[2] || !st.alive[3] || st.alive[4] || st.retired != 1 {
			t.Fatalf("r=%d: alive %v after round 0's init, want only node 4 (best edge 0.2) retired", r, st.alive)
		}
		res, err := Cluster(context.Background(), g, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range res.Dendrogram.Merges {
			found = found || (m.A == 2 && m.B == 3 && m.Sim == threshold)
		}
		if !found {
			t.Fatalf("r=%d: the edge at the threshold did not merge: %+v", r, res.Dendrogram.Merges)
		}
	}
}
