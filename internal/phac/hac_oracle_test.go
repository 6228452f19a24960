package phac_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"shoal/internal/benchjson"
	"shoal/internal/core"
	"shoal/internal/dendrogram"
	"shoal/internal/hac"
	"shoal/internal/phac"
	"shoal/internal/synth"
	"shoal/internal/wgraph"
)

// r0SimBound is how far an r = 0 merge similarity may sit from the
// sequential one. At r = 0 both endpoints of an old edge can merge in
// the same round, and Parallel HAC then composes their two Eq. 4
// updates in the other order: the same real number, rounded along a
// different path. The bound is two ulps of 1.0; the three graphs below
// measure at most 1.1e-16, at 15-95 of their 1 935-2 589 merges. At
// r >= 1 the similarities must be bit-equal.
const r0SimBound = 0x1p-51

type oracleGraph struct {
	name      string
	g         *wgraph.CSR
	sizes     []int
	threshold float64
}

// realEntityGraphs returns the entity graphs the oracle runs on: the
// benchmark fixture, and a default shoal-gen corpus (30 scenarios) built
// under the library default and under the served configuration. All
// three blend word2vec similarity in, so no two candidate merges tie:
// on tied similarities each order is a valid HAC, and the two
// algorithms may choose different ones.
func realEntityGraphs(t *testing.T) []oracleGraph {
	t.Helper()
	b, _, sizes, err := benchjson.FixedWorld()
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is built at stop threshold 0.12 (benchjson's
	// fixedWorldConfig).
	c30 := c30Graph(t, "c30-default", core.DefaultConfig())
	return []oracleGraph{
		{"fixture", b.Graph, sizes, 0.12},
		c30,
		atEdge(c30),
		c30Graph(t, "c30-served", core.CuratedConfig(true)),
	}
}

// atEdge re-thresholds og at the weight of its lightest reciprocal-best
// edge at or above og.threshold, so that one merge sits exactly on the
// stop threshold: sequential HAC merges that pair at its raw weight, and
// Parallel HAC must too — a cluster retires only below the threshold.
func atEdge(og oracleGraph) oracleGraph {
	offsets, nbrs, wts := og.g.Adj()
	best := make([]int32, og.g.NumNodes())
	for u := range best {
		best[u] = -1
		for j := offsets[u]; j < offsets[u+1]; j++ {
			if best[u] < 0 || wts[j] > wts[best[u]] {
				best[u] = j
			}
		}
	}
	at := math.Inf(1)
	for u, j := range best {
		if j >= 0 && wts[j] >= og.threshold && wts[j] < at {
			if v := nbrs[j]; best[v] >= 0 && nbrs[best[v]] == int32(u) {
				at = wts[j]
			}
		}
	}
	og.name, og.threshold = og.name+"-at-edge", at
	return og
}

// c30Graph builds a default shoal-gen corpus (30 scenarios) under cfg
// and returns its entity graph, entity sizes and stop threshold.
func c30Graph(tb testing.TB, name string, cfg core.Config) oracleGraph {
	tb.Helper()
	corpus, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cb, err := core.Run(corpus, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sizes := make([]int, len(cb.Entities.Entities))
	for i := range sizes {
		sizes[i] = cb.Entities.Entities[i].Size()
	}
	return oracleGraph{name, cb.Graph, sizes, cfg.HAC.StopThreshold}
}

// clustersBySim keys every cluster a dendrogram forms by its sorted
// member list and maps it to its merge similarity: merge order and
// minted ids differ between the algorithms, the clusters must not.
func clustersBySim(d *dendrogram.Dendrogram) map[string]float64 {
	members := make([][]int32, d.Leaves, d.Leaves+len(d.Merges))
	for i := range members {
		members[i] = []int32{int32(i)}
	}
	out := make(map[string]float64, len(d.Merges))
	for _, m := range d.Merges {
		mem := append(slices.Clone(members[m.A]), members[m.B]...)
		slices.Sort(mem)
		members = append(members, mem)
		out[fmt.Sprint(mem)] = m.Sim
	}
	return out
}

// compareClusters reports the first disagreements between two cluster
// maps: clusters only one side forms, and similarities further apart
// than bound (0 means bit-equal).
func compareClusters(want, got map[string]float64, bound float64) []string {
	var diffs []string
	for k, ws := range want {
		gs, ok := got[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("missing cluster at sim %.17g (%d members)", ws, strings.Count(k, " ")+1))
		case math.Abs(gs-ws) > bound:
			diffs = append(diffs, fmt.Sprintf("cluster of %d members at sim %.17g, want %.17g", strings.Count(k, " ")+1, gs, ws))
		}
	}
	for k, gs := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("extra cluster at sim %.17g (%d members)", gs, strings.Count(k, " ")+1))
		}
	}
	slices.Sort(diffs)
	return diffs
}

// TestClusterMatchesSequentialHAC holds Parallel HAC to sequential HAC
// on real entity graphs. Every merge round of Parallel HAC merges a set
// of reciprocal-best pairs, and Eq. 4 is reducible (S(A∪B, C) never
// exceeds max(S(A, C), S(B, C))), so by the RAC theorem (Sumengen et
// al., https://arxiv.org/abs/2105.11653) any r must form exactly
// internal/hac's clusters — provided no Eq. 4 sum is dropped, however
// small (and no two candidate merges tie; see realEntityGraphs).
// internal/hac has only Eq. 4, so the two E8 linkages are held to
// Parallel HAC's own r = 0 dendrogram instead.
func TestClusterMatchesSequentialHAC(t *testing.T) {
	ctx := context.Background()
	for _, og := range realEntityGraphs(t) {
		t.Run(og.name, func(t *testing.T) {
			seq, err := hac.Cluster(og.g, og.sizes, hac.Config{StopThreshold: og.threshold})
			if err != nil {
				t.Fatal(err)
			}
			want := clustersBySim(seq)
			if len(want) < 500 {
				t.Fatalf("%d sequential merges: the graph is too small to mean anything", len(want))
			}
			for _, linkage := range []phac.Linkage{phac.LinkageSqrtSize, phac.LinkageUnweighted, phac.LinkageSizeProportional} {
				var r0 map[string]float64
				for r := 0; r <= 3; r++ {
					res, err := phac.Cluster(ctx, og.g, og.sizes, phac.Config{
						StopThreshold: og.threshold, DiffusionRounds: r, Linkage: linkage,
					})
					if err != nil {
						t.Fatal(err)
					}
					got := clustersBySim(res.Dendrogram)
					ref, bound := want, 0.0
					switch {
					case linkage != phac.LinkageSqrtSize && r == 0:
						r0 = got
						continue
					case linkage != phac.LinkageSqrtSize:
						ref, bound = r0, r0SimBound
					case r == 0:
						bound = r0SimBound
					}
					if diffs := compareClusters(ref, got, bound); len(diffs) > 0 {
						t.Errorf("%v r=%d: %d of %d clusters disagree, first: %s",
							linkage, r, len(diffs), len(ref), strings.Join(diffs[:min(len(diffs), 3)], "; "))
					}
				}
			}
		})
	}
}

// BenchmarkCluster times Parallel HAC on the c30 entity graph built
// under core.DefaultConfig(), at r = 0 (phac.DefaultConfig) and at the
// paper's r = 2:
//
//	go test -run '^$' -bench '^BenchmarkCluster$' -benchmem ./internal/phac
func BenchmarkCluster(b *testing.B) {
	og := c30Graph(b, "c30-default", core.DefaultConfig())
	for _, r := range []int{0, 2} {
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			cfg := phac.Config{StopThreshold: og.threshold, DiffusionRounds: r}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := phac.Cluster(context.Background(), og.g, og.sizes, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
