package wgraph

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// dense is the reference model the CSR is held to: a symmetric n×n
// weight matrix in which zero means "no edge".
type dense [][]float64

func newDense(n int) dense {
	m := make(dense, n)
	for u := range m {
		m[u] = make([]float64, n)
	}
	return m
}

func (m dense) set(u, v int32, w float64) { m[u][v], m[v][u] = w, w }

// edges lists the upper triangle in canonical (U, V) order.
func (m dense) edges() []Edge {
	var out []Edge
	for u := range m {
		for v := u + 1; v < len(m); v++ {
			if m[u][v] != 0 {
				out = append(out, Edge{U: int32(u), V: int32(v), W: m[u][v]})
			}
		}
	}
	return out
}

// randomDense keeps each of the n(n-1)/2 pairs with probability p.
func randomDense(n int, p float64, seed uint64) dense {
	rng := rand.New(rand.NewPCG(seed, 17))
	m := newDense(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				m.set(int32(u), int32(v), 0.05+0.9*rng.Float64())
			}
		}
	}
	return m
}

// blockedTotal is the canonical summation of sum.go written the other
// way round: slice the addends into blocks, fold each, fold the folds.
func blockedTotal(edges []Edge) float64 {
	var total float64
	for lo := 0; lo < len(edges); lo += WeightSumBlockSize {
		var partial float64
		for _, e := range edges[lo:min(lo+WeightSumBlockSize, len(edges))] {
			partial += e.W
		}
		total += partial
	}
	return total
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFromEdgesMatchesDenseReference is the substrate test: every
// observation of a FromEdges CSR must be what the matrix says, floats
// bit for bit. The last case has more than two summation blocks and a
// ragged tail.
func TestFromEdgesMatchesDenseReference(t *testing.T) {
	cases := []struct {
		name string
		m    dense
	}{
		{"no-nodes", newDense(0)},
		{"no-edges", newDense(3)},
		{"sparse", randomDense(60, 0.05, 1)},
		{"medium", randomDense(40, 0.4, 2)},
		{"three-blocks", randomDense(150, 0.8, 3)},
	}
	for _, tc := range cases {
		n, edges := len(tc.m), tc.m.edges()
		c, err := FromEdges(n, edges)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.NumNodes() != n || c.NumEdges() != len(edges) {
			t.Fatalf("%s: %d nodes, %d edges, want %d, %d", tc.name, c.NumNodes(), c.NumEdges(), n, len(edges))
		}
		offsets, nbrs, wts := c.Adj()
		for u := 0; u < n; u++ {
			// The row is the matrix row's non-zeros, ascending: both
			// directions of every edge are present.
			var wantNbrs []int32
			var wantWts []float64
			var wdeg float64
			for v, w := range tc.m[u] {
				if w != 0 {
					wantNbrs, wantWts = append(wantNbrs, int32(v)), append(wantWts, w)
					wdeg += w
				}
			}
			lo, hi := offsets[u], offsets[u+1]
			if !slices.Equal(nbrs[lo:hi], wantNbrs) || !slices.Equal(wts[lo:hi], wantWts) {
				t.Fatalf("%s: row %d = %v %v, want %v %v", tc.name, u, nbrs[lo:hi], wts[lo:hi], wantNbrs, wantWts)
			}
			if got := c.WeightedDegree(int32(u)); !sameBits(got, wdeg) {
				t.Fatalf("%s: WeightedDegree(%d) = %v, want %v", tc.name, u, got, wdeg)
			}
		}
		if c.WeightedDegree(-1) != 0 || c.WeightedDegree(int32(n)) != 0 {
			t.Fatalf("%s: out-of-range WeightedDegree not zero", tc.name)
		}
		if !slices.Equal(c.Edges(), edges) {
			t.Fatalf("%s: Edges() does not round-trip", tc.name)
		}
		if got, want := c.TotalWeight(), blockedTotal(edges); !sameBits(got, want) {
			t.Fatalf("%s: TotalWeight = %v, want blocked fold %v", tc.name, got, want)
		}
	}
	if e := len(cases[len(cases)-1].m.edges()); e <= 2*WeightSumBlockSize || e%WeightSumBlockSize == 0 {
		t.Fatalf("three-blocks case has %d edges: not two full blocks and a ragged tail", e)
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
// canonicalized through the reference matrix is accepted, and the CSR
// holds the last write.
func TestFromEdgesAcceptsCanonicalizedAdversarialInput(t *testing.T) {
	m := newDense(5)
	for _, e := range []Edge{
		{U: 3, V: 1, W: 0.9}, // non-canonical order
		{U: 1, V: 3, W: 0.4}, // the same pair again (last write wins)
		{U: 2, V: 2, W: 0.7}, // self-loop: the upper triangle never lists it
		{U: 0, V: 4, W: 0.6},
		{U: 0, V: 1, W: 0.3},
	} {
		m.set(e.U, e.V, e.W)
	}
	c, err := FromEdges(5, m.edges())
	if err != nil {
		t.Fatalf("canonicalized edges rejected: %v", err)
	}
	want := []Edge{{U: 0, V: 1, W: 0.3}, {U: 0, V: 4, W: 0.6}, {U: 1, V: 3, W: 0.4}}
	if !slices.Equal(c.Edges(), want) {
		t.Fatalf("Edges() = %v, want %v", c.Edges(), want)
	}
}

// TestNeighborsSortedAndDegrees writes the layout out by hand once: a
// star on node 0 listed as (0,1) (0,3) (0,4).
func TestNeighborsSortedAndDegrees(t *testing.T) {
	c, err := FromEdges(5, []Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 3, W: 3}, {U: 0, V: 4, W: 4}})
	if err != nil {
		t.Fatal(err)
	}
	offsets, nbrs, wts := c.Adj()
	if !slices.Equal(offsets, []int32{0, 3, 4, 4, 5, 6}) ||
		!slices.Equal(nbrs, []int32{1, 3, 4, 0, 0, 0}) ||
		!slices.Equal(wts, []float64{1, 3, 4, 1, 3, 4}) {
		t.Fatalf("Adj() = %v %v %v", offsets, nbrs, wts)
	}
	if c.WeightedDegree(0) != 8 || c.WeightedDegree(2) != 0 || c.WeightedDegree(4) != 4 || c.TotalWeight() != 8 {
		t.Fatalf("weighted degrees %v %v %v, total %v", c.WeightedDegree(0), c.WeightedDegree(2), c.WeightedDegree(4), c.TotalWeight())
	}
}

// TestCanonicalBlockedTotal walks the edge count across the block
// boundaries of the canonical summation: FromEdges must flush a full
// block exactly once and fold a short tail last.
func TestCanonicalBlockedTotal(t *testing.T) {
	all := randomDense(150, 0.9, 11).edges()
	for _, k := range []int{0, 1, WeightSumBlockSize - 1, WeightSumBlockSize, WeightSumBlockSize + 1, 2 * WeightSumBlockSize, len(all)} {
		c, err := FromEdges(150, all[:k])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.TotalWeight(), blockedTotal(all[:k]); !sameBits(got, want) {
			t.Fatalf("%d edges: TotalWeight = %v, want blocked fold %v", k, got, want)
		}
	}
	// The shape matters: one flat left fold of the same addends lands on
	// another float.
	var flat float64
	for _, e := range all {
		flat += e.W
	}
	if sameBits(flat, blockedTotal(all)) {
		t.Fatal("fixture cannot tell the blocked fold from a flat one")
	}
}
