package modularity

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"shoal/internal/wgraph"
	"shoal/internal/wgraph/wgraphtest"
)

// twoTriangles builds two unit-weight triangles joined by one bridge.
func twoTriangles(t testing.TB) *wgraph.CSR {
	t.Helper()
	var edges []wgraph.Edge
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		edges = append(edges, wgraph.Edge{U: e[0], V: e[1], W: 1})
	}
	return wgraphtest.Build(t, 6, edges...)
}

func TestComputeHandValue(t *testing.T) {
	g := twoTriangles(t)
	labels := []int32{0, 0, 0, 1, 1, 1}
	got, err := Compute(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	// m = 7. Cluster 0: within=3, degree=2+2+3=7. Same for cluster 1.
	// Q = 2*(3/7 - (7/14)^2) = 6/7 - 1/2 = 5/14.
	want := 5.0 / 14.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Q = %f, want %f", got, want)
	}
}

func TestComputeAllOneCluster(t *testing.T) {
	g := twoTriangles(t)
	labels := []int32{9, 9, 9, 9, 9, 9}
	got, err := Compute(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	// Single cluster: Q = m/m - (2m/2m)^2 = 0.
	if math.Abs(got) > 1e-12 {
		t.Fatalf("Q(single cluster) = %f, want 0", got)
	}
}

func TestComputeSingletons(t *testing.T) {
	g := twoTriangles(t)
	labels := []int32{0, 1, 2, 3, 4, 5}
	got, err := Compute(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	if got >= 0 {
		t.Fatalf("Q(singletons) = %f, want negative", got)
	}
}

func TestGoodPartitionBeatsBad(t *testing.T) {
	g := twoTriangles(t)
	good, err := Compute(g, []int32{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Compute(g, []int32{0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if good <= bad {
		t.Fatalf("good partition Q=%f not above bad Q=%f", good, bad)
	}
}

func TestComputeWeighted(t *testing.T) {
	g := wgraphtest.Build(t, 4, []wgraph.Edge{{U: 0, V: 1, W: 10}, {U: 2, V: 3, W: 10}, {U: 1, V: 2, W: 0.1}}...)
	q, err := Compute(g, []int32{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.4 {
		t.Fatalf("strongly separated weighted graph Q = %f, want > 0.4", q)
	}
}

func TestComputeErrors(t *testing.T) {
	g := twoTriangles(t)
	if _, err := Compute(g, []int32{0, 0}); err == nil {
		t.Fatal("wrong label length accepted")
	}
	empty := wgraphtest.Build(t, 3)
	if _, err := Compute(empty, []int32{0, 1, 2}); err == nil {
		t.Fatal("edgeless graph accepted")
	}
}

// Property: Q is always within [-1, 1] for random graphs and labelings.
func TestComputeBoundedProperty(t *testing.T) {
	f := func(seed uint64, k uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		const n = 20
		var edges []wgraph.Edge
		for v := 1; v < n; v++ {
			u := rng.IntN(v)
			edges = append(edges, wgraph.Edge{U: int32(u), V: int32(v), W: rng.Float64() + 0.01})
		}
		g := wgraphtest.Build(t, n, edges...)
		labels := make([]int32, n)
		groups := int32(k%5) + 1
		for i := range labels {
			labels[i] = int32(rng.IntN(int(groups)))
		}
		q, err := Compute(g, labels)
		return err == nil && q >= -1 && q <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
