package wgraph

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// randomGraph builds a connected-ish random weighted graph.
func randomGraph(n, extraEdges int, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 17))
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.IntN(v)
		_ = g.SetEdge(int32(u), int32(v), 0.05+0.9*rng.Float64())
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		_ = g.SetEdge(int32(u), int32(v), 0.05+0.9*rng.Float64())
	}
	return g
}

// TestCSRObservationallyIdentical is the substrate property test: a
// frozen CSR must be indistinguishable from its source builder through
// every View observation — including byte-equal floats for the cached
// aggregates.
func TestCSRObservationallyIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := randomGraph(60, int(seed*13%120), seed)
		c := g.Freeze()

		if c.NumNodes() != g.NumNodes() {
			t.Fatalf("seed %d: NumNodes %d != %d", seed, c.NumNodes(), g.NumNodes())
		}
		if c.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: NumEdges %d != %d", seed, c.NumEdges(), g.NumEdges())
		}
		if c.TotalWeight() != g.TotalWeight() {
			t.Fatalf("seed %d: TotalWeight %v != %v", seed, c.TotalWeight(), g.TotalWeight())
		}
		if !reflect.DeepEqual(c.Components(), g.Components()) {
			t.Fatalf("seed %d: Components differ", seed)
		}
		if !reflect.DeepEqual(c.Edges(), g.Edges()) {
			t.Fatalf("seed %d: Edges differ", seed)
		}
		for u := int32(0); int(u) < g.NumNodes(); u++ {
			gn, cn := g.Neighbors(u), c.Neighbors(u)
			if len(gn) != len(cn) {
				t.Fatalf("seed %d node %d: Neighbors len %d != %d", seed, u, len(cn), len(gn))
			}
			for i := range gn {
				if gn[i] != cn[i] {
					t.Fatalf("seed %d node %d: Neighbors[%d] %d != %d", seed, u, i, cn[i], gn[i])
				}
			}
			if g.Degree(u) != c.Degree(u) {
				t.Fatalf("seed %d node %d: Degree differs", seed, u)
			}
			if g.WeightedDegree(u) != c.WeightedDegree(u) {
				t.Fatalf("seed %d node %d: WeightedDegree %v != %v",
					seed, u, c.WeightedDegree(u), g.WeightedDegree(u))
			}
			for _, v := range gn {
				gw, gok := g.Weight(u, v)
				cw, cok := c.Weight(u, v)
				if gok != cok || gw != cw {
					t.Fatalf("seed %d: Weight(%d,%d) = %v,%v vs %v,%v", seed, u, v, cw, cok, gw, gok)
				}
			}
			// A non-neighbor probe must miss on both.
			if _, ok := c.Weight(u, u); ok {
				t.Fatalf("seed %d: self-loop reported on node %d", seed, u)
			}
		}
		// ForEachNeighbor visits the same (v, w) sequence.
		for u := int32(0); int(u) < g.NumNodes(); u++ {
			type vw struct {
				v int32
				w float64
			}
			var a, b []vw
			g.ForEachNeighbor(u, func(v int32, w float64) { a = append(a, vw{v, w}) })
			c.ForEachNeighbor(u, func(v int32, w float64) { b = append(b, vw{v, w}) })
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d node %d: ForEachNeighbor sequences differ", seed, u)
			}
		}
	}
}

func TestFromEdgesMatchesFreeze(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := randomGraph(40, 80, seed)
		viaFreeze := g.Freeze()
		viaEdges, err := FromEdges(g.NumNodes(), g.Edges())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaFreeze, viaEdges) {
			t.Fatalf("seed %d: FromEdges CSR differs from Freeze CSR", seed)
		}
		if viaFreeze.TotalWeight() != viaEdges.TotalWeight() {
			t.Fatalf("seed %d: totals differ", seed)
		}
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		want  string // deterministic error text
	}{
		{"non-canonical", 3, []Edge{{U: 2, V: 1, W: 0.5}},
			"wgraph: FromEdges edge 0 (2,1) not canonical"},
		{"self-loop", 3, []Edge{{U: 1, V: 1, W: 0.5}},
			"wgraph: FromEdges edge 0 (1,1) not canonical"},
		{"negative", 3, []Edge{{U: -2, V: 1, W: 0.5}},
			"wgraph: FromEdges edge 0 (-2,1) out of range [0,3)"},
		{"out-of-range", 3, []Edge{{U: 0, V: 3, W: 0.5}},
			"wgraph: FromEdges edge 0 (0,3) out of range [0,3)"},
		{"unsorted", 4, []Edge{{U: 1, V: 2, W: 0.5}, {U: 0, V: 3, W: 0.5}},
			"wgraph: FromEdges edges not sorted at 1"},
		{"unsorted-within-row", 4, []Edge{{U: 0, V: 3, W: 0.5}, {U: 0, V: 1, W: 0.5}},
			"wgraph: FromEdges edges not sorted at 1"},
		{"duplicate", 4, []Edge{{U: 0, V: 1, W: 0.5}, {U: 0, V: 1, W: 0.6}},
			"wgraph: FromEdges edges not sorted at 1"},
		{"duplicate-after-valid-prefix", 5,
			[]Edge{{U: 0, V: 1, W: 0.5}, {U: 1, V: 4, W: 0.2}, {U: 1, V: 4, W: 0.2}},
			"wgraph: FromEdges edges not sorted at 2"},
		{"self-loop-after-valid-prefix", 5,
			[]Edge{{U: 0, V: 1, W: 0.5}, {U: 3, V: 3, W: 0.2}},
			"wgraph: FromEdges edge 1 (3,3) not canonical"},
	}
	for _, tc := range cases {
		// The rejection must be deterministic: same input, same error,
		// always reporting the first offending index.
		for try := 0; try < 3; try++ {
			_, err := FromEdges(tc.n, tc.edges)
			if err == nil {
				t.Errorf("%s: FromEdges accepted invalid input", tc.name)
				break
			}
			if err.Error() != tc.want {
				t.Errorf("%s: error = %q, want %q", tc.name, err, tc.want)
				break
			}
		}
	}
}

// TestFromEdgesAcceptsCanonicalizedAdversarialInput is the positive
// half: an adversarial edge soup (unsorted, duplicated, self-looped)
// canonicalized through the mutable builder must round-trip into the
// same CSR as the directly constructed graph.
func TestFromEdgesAcceptsCanonicalizedAdversarialInput(t *testing.T) {
	soup := []Edge{
		{U: 3, V: 1, W: 0.9}, // non-canonical order
		{U: 1, V: 3, W: 0.4}, // duplicate of the above (last write wins)
		{U: 2, V: 2, W: 0.7}, // self-loop: dropped by the builder
		{U: 0, V: 4, W: 0.6},
		{U: 0, V: 1, W: 0.3},
	}
	g := New(5)
	for _, e := range soup {
		if e.U == e.V {
			if err := g.SetEdge(e.U, e.V, e.W); err == nil {
				t.Fatal("builder accepted a self-loop")
			}
			continue
		}
		if err := g.SetEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	canonical := g.Edges()
	c, err := FromEdges(5, canonical)
	if err != nil {
		t.Fatalf("canonicalized edges rejected: %v", err)
	}
	if !reflect.DeepEqual(c, g.Freeze()) {
		t.Fatal("canonicalized FromEdges CSR differs from Freeze")
	}
	if w, ok := c.Weight(1, 3); !ok || w != 0.4 {
		t.Fatalf("duplicate edge did not keep the last write: %v %v", w, ok)
	}
}

func TestFreezeMemoizedAndInvalidated(t *testing.T) {
	g := randomGraph(20, 30, 7)
	c1 := g.Freeze()
	if c2 := g.Freeze(); c1 != c2 {
		t.Fatal("Freeze not memoized between mutations")
	}
	if err := g.SetEdge(0, 19, 0.42); err != nil {
		t.Fatal(err)
	}
	c3 := g.Freeze()
	if c3 == c1 {
		t.Fatal("Freeze memo not invalidated by SetEdge")
	}
	if w, ok := c3.Weight(0, 19); !ok || w != 0.42 {
		t.Fatalf("new edge missing from refrozen CSR: %v %v", w, ok)
	}
	g.RemoveEdge(0, 19)
	if _, ok := g.Freeze().Weight(0, 19); ok {
		t.Fatal("Freeze memo not invalidated by RemoveEdge")
	}
}

func TestNumEdgesIncremental(t *testing.T) {
	g := New(5)
	if g.NumEdges() != 0 {
		t.Fatal("fresh graph has edges")
	}
	if err := g.SetEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge(0, 1, 0.9); err != nil { // overwrite, not a new edge
		t.Fatal(err)
	}
	if err := g.SetEdge(1, 2, 0.3); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	g.RemoveEdge(0, 1)
	g.RemoveEdge(0, 1) // absent: no-op
	g.RemoveEdge(3, 4) // absent: no-op
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

// TestSortedAdjacencyCacheAfterMutation ensures the cached sorted
// neighbor lists used by ForEachNeighbor are invalidated correctly.
func TestSortedAdjacencyCacheAfterMutation(t *testing.T) {
	g := New(4)
	mustSet := func(u, v int32, w float64) {
		t.Helper()
		if err := g.SetEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(0, 2, 0.5)
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	mustSet(0, 1, 0.4) // mutate after the cache was built
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("Neighbors(0) after insert = %v", got)
	}
	var seen []int32
	g.ForEachNeighbor(0, func(v int32, _ float64) { seen = append(seen, v) })
	if !reflect.DeepEqual(seen, []int32{1, 2}) {
		t.Fatalf("ForEachNeighbor order = %v", seen)
	}
	g.RemoveEdge(0, 2)
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int32{1}) {
		t.Fatalf("Neighbors(0) after remove = %v", got)
	}
	// Callers may mutate the Neighbors copy without corrupting the cache.
	n := g.Neighbors(1)
	if len(n) > 0 {
		n[0] = 99
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("Neighbors(1) corrupted by caller mutation: %v", got)
	}
}

// TestCanonicalBlockedTotal pins the canonical-summation contract: the
// builder, its frozen CSR, FromEdges, and the exported SumEdgeWeights
// helper (the reduction parallel builders replicate) must all produce
// the same float64 bit pattern for the total edge weight.
func TestCanonicalBlockedTotal(t *testing.T) {
	g := randomGraph(200, 700, 11)
	edges := g.Edges()
	want := SumEdgeWeights(edges)
	if got := g.TotalWeight(); got != want {
		t.Fatalf("builder total %v != SumEdgeWeights %v", got, want)
	}
	if got := g.Freeze().TotalWeight(); got != want {
		t.Fatalf("frozen total %v != SumEdgeWeights %v", got, want)
	}
	c, err := FromEdges(g.NumNodes(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TotalWeight(); got != want {
		t.Fatalf("FromEdges total %v != SumEdgeWeights %v", got, want)
	}
}
