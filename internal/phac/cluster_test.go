package phac

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"shoal/internal/dendrogram"
	"shoal/internal/hac"
	"shoal/internal/wgraph"
	"shoal/internal/wgraph/wgraphtest"
)

func twoClusters(t testing.TB) *wgraph.CSR {
	return wgraphtest.Build(t, 6, []wgraph.Edge{
		{U: 0, V: 1, W: 0.9}, {U: 1, V: 2, W: 0.85}, {U: 0, V: 2, W: 0.88},
		{U: 3, V: 4, W: 0.8}, {U: 4, V: 5, W: 0.78}, {U: 3, V: 5, W: 0.82},
		{U: 2, V: 3, W: 0.2},
	}...)
}

func TestClusterTwoCommunities(t *testing.T) {
	g := twoClusters(t)
	res, err := Cluster(context.Background(), g, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Dendrogram
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
		t.Fatalf("bridge merged: %v", labels)
	}
}

func TestClusterEq4Update(t *testing.T) {
	// A=0,B=1,C=2: S(A,B)=0.9, S(A,C)=0.6, S(B,C) missing.
	// Round 0 merges (A,B); S(AB,C) = 0.5*0.6 + 0.5*0 = 0.3.
	g := wgraphtest.Build(t, 3, wgraph.Edge{U: 0, V: 1, W: 0.9}, wgraph.Edge{U: 0, V: 2, W: 0.6})
	res, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.05, DiffusionRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dendrogram.Merges) != 2 {
		t.Fatalf("merges = %d, want 2", len(res.Dendrogram.Merges))
	}
	if math.Abs(res.Dendrogram.Merges[1].Sim-0.3) > 1e-12 {
		t.Fatalf("S(AB,C) = %f, want 0.3", res.Dendrogram.Merges[1].Sim)
	}
}

func TestClusterBothEndpointsMergedCompose(t *testing.T) {
	// Two pairs merge in the same round: (0,1) and (2,3), with cross
	// edges. Sequential Eq. 4 applied twice gives
	// S(01,23) = 0.5*0.5*(S02+S03+S12+S13).
	g := wgraphtest.Build(t, 4, []wgraph.Edge{
		{U: 0, V: 1, W: 0.9}, {U: 2, V: 3, W: 0.88},
		{U: 0, V: 2, W: 0.4}, {U: 0, V: 3, W: 0.36},
		{U: 1, V: 2, W: 0.44}, {U: 1, V: 3, W: 0.4},
	}...)
	res, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.05, DiffusionRounds: 0})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Dendrogram
	if len(d.Merges) < 2 {
		t.Fatalf("merges = %d, want >= 2", len(d.Merges))
	}
	// Round 0 must select both pairs (each is mutually maximal).
	if d.Merges[0].Round != 0 || d.Merges[1].Round != 0 {
		t.Fatalf("first two merges not in round 0: %+v", d.Merges[:2])
	}
	want := 0.25 * (0.4 + 0.36 + 0.44 + 0.4)
	if len(d.Merges) != 3 {
		t.Fatalf("merges = %d, want 3", len(d.Merges))
	}
	if math.Abs(d.Merges[2].Sim-want) > 1e-12 {
		t.Fatalf("S(01,23) = %f, want %f", d.Merges[2].Sim, want)
	}
}

func TestClusterWeightedSizes(t *testing.T) {
	// nA=4, nB=1: weights 2/3, 1/3. S(AB,C) = 2/3*0.6 + 1/3*0.3 = 0.5.
	g := wgraphtest.Build(t, 3, []wgraph.Edge{{U: 0, V: 1, W: 0.9}, {U: 0, V: 2, W: 0.6}, {U: 1, V: 2, W: 0.3}}...)
	res, err := Cluster(context.Background(), g, []int{4, 1, 1}, Config{StopThreshold: 0.05, DiffusionRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Dendrogram
	if len(d.Merges) != 2 {
		t.Fatalf("merges = %d, want 2", len(d.Merges))
	}
	if math.Abs(d.Merges[1].Sim-0.5) > 1e-12 {
		t.Fatalf("S(AB,C) = %f, want 0.5", d.Merges[1].Sim)
	}
}

func TestClusterLinkageAblation(t *testing.T) {
	g := wgraphtest.Build(t, 3, []wgraph.Edge{{U: 0, V: 1, W: 0.9}, {U: 0, V: 2, W: 0.6}, {U: 1, V: 2, W: 0.3}}...)
	sizes := []int{4, 1, 1}
	cases := []struct {
		linkage Linkage
		want    float64
	}{
		{LinkageSqrtSize, 2.0/3*0.6 + 1.0/3*0.3},
		{LinkageUnweighted, 0.5*0.6 + 0.5*0.3},
		{LinkageSizeProportional, 0.8*0.6 + 0.2*0.3},
	}
	for _, tc := range cases {
		res, err := Cluster(context.Background(), g, sizes, Config{StopThreshold: 0.05, DiffusionRounds: 1, Linkage: tc.linkage})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Dendrogram.Merges[1].Sim
		if math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("%v: S(AB,C) = %f, want %f", tc.linkage, got, tc.want)
		}
	}
}

func TestClusterStopThreshold(t *testing.T) {
	g := twoClusters(t)
	res, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.95, DiffusionRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dendrogram.Merges) != 0 {
		t.Fatalf("merged above threshold: %v", res.Dendrogram.Merges)
	}
}

func TestClusterMaxRounds(t *testing.T) {
	g := twoClusters(t)
	res, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.1, DiffusionRounds: 2, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(res.Rounds))
	}
}

func TestClusterErrors(t *testing.T) {
	g := twoClusters(t)
	if _, err := Cluster(context.Background(), wgraphtest.Build(t, 0), nil, DefaultConfig()); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 2, DiffusionRounds: 1}); err == nil {
		t.Fatal("bad threshold accepted")
	}
	if _, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.3, DiffusionRounds: -1}); err == nil {
		t.Fatal("negative rounds accepted")
	}
	if _, err := Cluster(context.Background(), g, []int{1}, DefaultConfig()); err == nil {
		t.Fatal("bad sizes length accepted")
	}
	if _, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.3, DiffusionRounds: 1, Linkage: Linkage(9)}); err == nil {
		t.Fatal("unknown linkage accepted")
	}
}

func TestClusterDoesNotModifyInput(t *testing.T) {
	g := twoClusters(t)
	before := g.Edges()
	if _, err := Cluster(context.Background(), g, nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, g.Edges()) {
		t.Fatal("Cluster modified the input graph")
	}
}

// With many diffusion rounds on a small graph, Parallel HAC degenerates to
// selecting (almost) one global max per round — its dendrogram must then
// agree with sequential HAC's merge set.
func TestClusterAgreesWithSequentialAtHighR(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := wgraphtest.Random(24, 40, seed)
		pres, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.4, DiffusionRounds: 64})
		if err != nil {
			t.Fatal(err)
		}
		sres, err := hac.Cluster(g, nil, hac.Config{StopThreshold: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		// Compare partitions (merge order may differ; the flat cut at the
		// stop threshold must match).
		pl := pres.Dendrogram.CutAt(0.4)
		sl := sres.CutAt(0.4)
		if !samePartition(pl, sl) {
			t.Fatalf("seed %d: partitions differ\nparallel:   %v\nsequential: %v", seed, pl, sl)
		}
	}
}

// samePartition reports whether two labelings induce the same partition.
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int32]int32)
	bwd := make(map[int32]int32)
	for i := range a {
		if la, ok := fwd[a[i]]; ok && la != b[i] {
			return false
		}
		if lb, ok := bwd[b[i]]; ok && lb != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

// Property: every merge similarity is within [0,1] and dendrograms are
// always well-formed on random graphs.
func TestClusterWellFormedProperty(t *testing.T) {
	f := func(seed uint64, rRaw uint8) bool {
		g := wgraphtest.Random(40, 80, seed)
		r := int(rRaw % 5)
		res, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.25, DiffusionRounds: r})
		if err != nil {
			return false
		}
		if err := res.Dendrogram.Validate(); err != nil {
			return false
		}
		for _, m := range res.Dendrogram.Merges {
			if m.Sim < 0.25-1e-12 || m.Sim > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Round-0 selection of Cluster must agree with the standalone Diffuse on
// the same graph (integration between the two code paths).
func TestClusterFirstRoundMatchesDiffuse(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := wgraphtest.Random(60, 150, seed)
		sel, err := Diffuse(g, 2, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Cluster(context.Background(), g, nil, Config{StopThreshold: 0.3, DiffusionRounds: 2, MaxRounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []Edge
		for _, m := range res.Dendrogram.Merges {
			got = append(got, Edge{U: m.A, V: m.B, Sim: m.Sim})
		}
		if !reflect.DeepEqual(sel, got) {
			t.Fatalf("seed %d: Diffuse=%v Cluster round 0=%v", seed, sel, got)
		}
	}
}

func TestDiffuseErrors(t *testing.T) {
	g := figure3(t)
	if _, err := Diffuse(wgraphtest.Build(t, 0), 2, 0.3); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := Diffuse(g, -1, 0.3); err == nil {
		t.Fatal("negative rounds accepted")
	}
}

// Dendrogram sizes must equal the sum of initial sizes along merges.
func TestClusterSizeBookkeeping(t *testing.T) {
	g := twoClusters(t)
	sizes := []int{2, 3, 1, 5, 1, 2}
	res, err := Cluster(context.Background(), g, sizes, Config{StopThreshold: 0.1, DiffusionRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Dendrogram
	var total int
	for _, root := range d.Roots() {
		for _, leaf := range d.Members(root) {
			total += sizes[leaf]
		}
	}
	want := 0
	for _, s := range sizes {
		want += s
	}
	if total != want {
		t.Fatalf("size mass = %d, want %d", total, want)
	}
}

// TestClusterZeroAllocDiffusion locks in the tentpole win: once the
// state CSR is built, a diffusion pass over it must not allocate — no
// phase forks (no goroutines, no closures).
func TestClusterZeroAllocDiffusion(t *testing.T) {
	st := newState(wgraphtest.Random(512, 1024, 3), nil, Config{StopThreshold: 0.1, DiffusionRounds: 2})
	// Warm the scratch buffers once.
	st.selectLocalMaxima()
	allocs := testing.AllocsPerRun(20, func() {
		st.selectLocalMaxima()
	})
	if allocs > 0 {
		t.Fatalf("diffusion+selection allocated %.1f objects per round, want 0", allocs)
	}
}

var _ = dendrogram.Merge{} // keep import when tests shrink
