package hac

import (
	"math"
	"reflect"
	"testing"

	"shoal/internal/wgraph"
	"shoal/internal/wgraph/wgraphtest"
)

// twoClusters builds a graph with two tight triangles joined by one weak
// edge: {0,1,2} at 0.9, {3,4,5} at 0.8, bridge (2,3) at 0.2.
func twoClusters(t *testing.T) *wgraph.CSR {
	t.Helper()
	return wgraphtest.Build(t, 6, []wgraph.Edge{
		{U: 0, V: 1, W: 0.9}, {U: 1, V: 2, W: 0.9}, {U: 0, V: 2, W: 0.9},
		{U: 3, V: 4, W: 0.8}, {U: 4, V: 5, W: 0.8}, {U: 3, V: 5, W: 0.8},
		{U: 2, V: 3, W: 0.2},
	}...)
}

func TestClusterTwoCommunities(t *testing.T) {
	g := twoClusters(t)
	d, err := Cluster(g, nil, Config{StopThreshold: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid dendrogram: %v", err)
	}
	labels := d.CutAt(0.35)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("left triangle split: %v", labels)
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatalf("right triangle split: %v", labels)
	}
	if labels[0] == labels[3] {
		t.Fatalf("bridge merged across threshold: %v", labels)
	}
}

func TestClusterStopsAtThreshold(t *testing.T) {
	g := twoClusters(t)
	d, err := Cluster(g, nil, Config{StopThreshold: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) != 0 {
		t.Fatalf("merges above threshold 0.95: %v", d.Merges)
	}
}

func TestClusterMergesHighestFirst(t *testing.T) {
	g := twoClusters(t)
	d, err := Cluster(g, nil, Config{StopThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) == 0 {
		t.Fatal("no merges")
	}
	first := d.Merges[0]
	if first.Sim != 0.9 {
		t.Fatalf("first merge sim = %f, want 0.9", first.Sim)
	}
	// Deterministic tie-break: (0,1) is the canonical smallest 0.9 edge.
	a, b := first.A, first.B
	if a > b {
		a, b = b, a
	}
	if a != 0 || b != 1 {
		t.Fatalf("first merge = (%d,%d), want (0,1)", first.A, first.B)
	}
}

// TestEq4Update verifies the √-normalized similarity update on the paper's
// own scenario: merge A,B and check S(AB,C).
func TestEq4Update(t *testing.T) {
	// A=0, B=1, C=2. S(A,B)=0.9, S(A,C)=0.6, S(B,C) missing (=0).
	g := wgraphtest.Build(t, 3, wgraph.Edge{U: 0, V: 1, W: 0.9}, wgraph.Edge{U: 0, V: 2, W: 0.6})
	d, err := Cluster(g, nil, Config{StopThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) < 1 {
		t.Fatal("no merges")
	}
	m0 := d.Merges[0]
	if m0.Sim != 0.9 {
		t.Fatalf("first merge sim %f, want 0.9", m0.Sim)
	}
	// With nA=nB=1: S(AB,C) = (1/2)(0.6) + (1/2)(0) = 0.3.
	if len(d.Merges) != 2 {
		t.Fatalf("merges = %d, want 2 (AB then AB+C at 0.3)", len(d.Merges))
	}
	if math.Abs(d.Merges[1].Sim-0.3) > 1e-12 {
		t.Fatalf("S(AB,C) = %f, want 0.3", d.Merges[1].Sim)
	}
}

// TestEq4UpdateWeighted checks the size weighting with unequal sizes:
// nA=4, nB=1 -> weights 2/3, 1/3.
func TestEq4UpdateWeighted(t *testing.T) {
	g := wgraphtest.Build(t, 3, []wgraph.Edge{{U: 0, V: 1, W: 0.9}, {U: 0, V: 2, W: 0.6}, {U: 1, V: 2, W: 0.3}}...)
	d, err := Cluster(g, []int{4, 1, 1}, Config{StopThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// First merge: (0,1) at 0.9. S(01,2) = (2/3)(0.6)+(1/3)(0.3) = 0.5.
	if len(d.Merges) != 2 {
		t.Fatalf("merges = %d, want 2", len(d.Merges))
	}
	if math.Abs(d.Merges[1].Sim-0.5) > 1e-12 {
		t.Fatalf("S(01,2) = %f, want 0.5", d.Merges[1].Sim)
	}
}

func TestClusterErrors(t *testing.T) {
	g := twoClusters(t)
	if _, err := Cluster(wgraphtest.Build(t, 0), nil, DefaultConfig()); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := Cluster(g, nil, Config{StopThreshold: -0.5}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := Cluster(g, nil, Config{StopThreshold: 1.5}); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
	if _, err := Cluster(g, []int{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("wrong sizes length accepted")
	}
	if _, err := Cluster(g, []int{1, 1, 1, 1, 1, 0}, DefaultConfig()); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestClusterDoesNotModifyInput(t *testing.T) {
	g := twoClusters(t)
	before := g.Edges()
	if _, err := Cluster(g, nil, Config{StopThreshold: 0.1}); err != nil {
		t.Fatal(err)
	}
	after := g.Edges()
	if !reflect.DeepEqual(before, after) {
		t.Fatal("Cluster modified the input graph")
	}
}

func TestClusterDeterministic(t *testing.T) {
	g := twoClusters(t)
	d1, err := Cluster(g, nil, Config{StopThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Cluster(g, nil, Config{StopThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("sequential HAC not deterministic")
	}
}

// Merge similarities along a sequential HAC run are non-increasing iff the
// linkage cannot create a similarity above the merged pair's. Eq. 4 is an
// average, so S(AB,C) <= max(S(A,C), S(B,C)); the global max therefore
// never increases.
func TestClusterMonotoneMergeSims(t *testing.T) {
	g := twoClusters(t)
	d, err := Cluster(g, nil, Config{StopThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d.Merges); i++ {
		if d.Merges[i].Sim > d.Merges[i-1].Sim+1e-12 {
			t.Fatalf("merge sims increased: %f then %f", d.Merges[i-1].Sim, d.Merges[i].Sim)
		}
	}
}
