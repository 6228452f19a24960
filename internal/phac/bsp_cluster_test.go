package phac

import (
	"reflect"
	"testing"

	"shoal/internal/bsp"
	"shoal/internal/dendrogram"
	"shoal/internal/wgraph"
)

// TestClusterBSPMemoizedMatchesCold drives the UseBSP selection round by
// round against a twin whose cross-round cache is wiped before every
// round — level arrays back to noEdge, haveCache cleared — so the twin's
// engine runs a cold, full-activation recompute each round exactly like
// the pre-memoization program did. The memoized state (seeded runs,
// incremental edge totals, lazy-deletion global-best heap) must stay
// byte-identical to that cold recompute at every round: same matching,
// same edge count, same best similarity.
func TestClusterBSPMemoizedMatchesCold(t *testing.T) {
	const rounds, threshold = 2, 0.25
	cfg := Config{StopThreshold: threshold, DiffusionRounds: rounds}
	for seed := uint64(1); seed <= 3; seed++ {
		g := randomGraph(60, 160, seed)
		mem := newState(wgraph.AsCSR(g), nil, cfg)
		cold := newState(wgraph.AsCSR(g), nil, cfg)
		var aggM, aggC bsp.Stats
		dM := &dendrogram.Dendrogram{Leaves: 60}
		dC := &dendrogram.Dendrogram{Leaves: 60}
		for round := 0; round < 100; round++ {
			selM, edgesM, bestM, err := mem.selectLocalMaximaBSP(rounds, threshold, &aggM, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Wipe the twin's memoized cascade: the run that follows must
			// rebuild every level of every row from the current CSR alone.
			cold.haveCache = false
			for _, lvl := range cold.exStates {
				for i := range lvl {
					lvl[i] = noEdge
				}
			}
			selC, edgesC, bestC, err := cold.selectLocalMaximaBSP(rounds, threshold, &aggC, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(selM, selC) {
				t.Fatalf("seed %d round %d: memoized selection diverged from cold recompute:\n%v\nvs\n%v",
					seed, round, selM, selC)
			}
			if edgesM != edgesC || bestM != bestC {
				t.Fatalf("seed %d round %d: round stats diverged: (%d, %v) vs (%d, %v)",
					seed, round, edgesM, bestM, edgesC, bestC)
			}
			if edgesM == 0 || bestM < threshold {
				break
			}
			mem.mergeSelected(selM, round, cfg, dM)
			cold.mergeSelected(selC, round, cfg, dC)
		}
		if !reflect.DeepEqual(dM, dC) {
			t.Fatalf("seed %d: dendrograms diverged", seed)
		}
		if aggM.SeededRuns == 0 {
			t.Fatalf("seed %d: memoized twin never ran seeded", seed)
		}
		if aggC.SeededRuns != 0 {
			t.Fatalf("seed %d: cold twin ran %d seeded runs, want none", seed, aggC.SeededRuns)
		}
		mem.release()
		cold.release()
	}
}
