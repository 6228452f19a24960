package phac

import (
	"context"
	"reflect"
	"testing"

	"shoal/internal/wgraph"
	"shoal/internal/wgraph/wgraphtest"
)

// figure3 reconstructs the 13-node example of paper Fig. 3. The figure's
// exact adjacency is not published machine-readably; this reconstruction
// uses the figure's node names (A..M) and weight vocabulary and reproduces
// the described outcome: after two diffusion iterations the edges (A,B)
// and (E,F) are the locally-maximal edges.
//
// Node ids: A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7 I=8 J=9 K=10 L=11 M=12.
func figure3(t testing.TB) *wgraph.CSR {
	return wgraphtest.Build(t, 13, []wgraph.Edge{
		{U: 0, V: 1, W: 0.90},   // A-B
		{U: 4, V: 5, W: 0.91},   // E-F
		{U: 10, V: 1, W: 0.74},  // K-B
		{U: 0, V: 2, W: 0.70},   // A-C
		{U: 0, V: 3, W: 0.67},   // A-D
		{U: 2, V: 3, W: 0.62},   // C-D
		{U: 7, V: 1, W: 0.65},   // H-B
		{U: 7, V: 8, W: 0.61},   // H-I
		{U: 3, V: 8, W: 0.58},   // D-I
		{U: 2, V: 9, W: 0.64},   // C-J
		{U: 4, V: 6, W: 0.68},   // E-G
		{U: 5, V: 6, W: 0.65},   // F-G
		{U: 5, V: 9, W: 0.61},   // F-J
		{U: 6, V: 11, W: 0.68},  // G-L
		{U: 11, V: 12, W: 0.63}, // L-M
		{U: 9, V: 11, W: 0.58},  // J-L
		{U: 9, V: 6, W: 0.53},   // J-G
	}...)
}

func TestFigure3LocalMaximaAfterTwoIterations(t *testing.T) {
	g := figure3(t)
	sel, err := Diffuse(g, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{U: 0, V: 1, Sim: 0.90}, {U: 4, V: 5, Sim: 0.91}}
	if !reflect.DeepEqual(sel, want) {
		t.Fatalf("Diffuse(r=2) = %v, want AB and EF only: %v", sel, want)
	}
}

func TestFigure3FirstRoundMergesABAndEF(t *testing.T) {
	g := figure3(t)
	res, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.3, DiffusionRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 || res.Rounds[0].Selected != 2 {
		t.Fatalf("round 0 selected %d merges, want 2", res.Rounds[0].Selected)
	}
	m0, m1 := res.Dendrogram.Merges[0], res.Dendrogram.Merges[1]
	if m0.A != 0 || m0.B != 1 || m0.Sim != 0.90 {
		t.Fatalf("first merge = %+v, want A,B @0.90", m0)
	}
	if m1.A != 4 || m1.B != 5 || m1.Sim != 0.91 {
		t.Fatalf("second merge = %+v, want E,F @0.91", m1)
	}
}

func TestDiffuseMatchingIsNodeDisjoint(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := wgraphtest.Random(80, 160, seed)
		for _, r := range []int{0, 1, 2, 4} {
			sel, err := Diffuse(g, r, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int32]bool)
			for _, e := range sel {
				if e.U >= e.V {
					t.Fatalf("non-canonical edge %v", e)
				}
				if seen[e.U] || seen[e.V] {
					t.Fatalf("seed %d r=%d: matching not node-disjoint at %v", seed, r, e)
				}
				seen[e.U] = true
				seen[e.V] = true
			}
		}
	}
}

// The paper: fewer diffusion iterations => more local maximal edges. The
// strong form is a subset relation, which we assert exactly.
func TestDiffuseSelectionShrinksWithIterations(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := wgraphtest.Random(100, 250, seed)
		prev := map[[2]int32]bool{}
		for r := 0; r <= 4; r++ {
			sel, err := Diffuse(g, r, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			cur := make(map[[2]int32]bool, len(sel))
			for _, e := range sel {
				cur[[2]int32{e.U, e.V}] = true
			}
			if r > 0 {
				for k := range cur {
					if !prev[k] {
						t.Fatalf("seed %d: edge %v selected at r=%d but not at r=%d", seed, k, r, r-1)
					}
				}
			}
			prev = cur
		}
	}
}

// The globally maximal edge is always locally maximal, so diffusion always
// selects at least one edge while any edge meets the threshold.
func TestDiffuseAlwaysSelectsGlobalMax(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		g := wgraphtest.Random(60, 120, seed)
		best := wgraph.Edge{W: -1}
		for _, e := range g.Edges() {
			if e.W > best.W {
				best = e
			}
		}
		for _, r := range []int{0, 2, 6} {
			sel, err := Diffuse(g, r, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, e := range sel {
				if e.U == best.U && e.V == best.V {
					found = true
				}
			}
			if !found {
				t.Fatalf("seed %d r=%d: global max %v not selected", seed, r, best)
			}
		}
	}
}
