package experiments

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"shoal/internal/dendrogram"
	"shoal/internal/hac"
	"shoal/internal/modularity"
	"shoal/internal/phac"
)

// E3Modularity reproduces the clustering-quality claim of §2.2: Parallel
// HAC consistently produces clusters with modularity > 0.3, measured over
// several corpus seeds and scales.
func E3Modularity(sc Scale, seeds []uint64) (*Table, error) {
	t := &Table{
		ID:         "E3",
		Title:      "Modularity of Parallel HAC root-topic partitions",
		PaperClaim: "Parallel HAC consistently produces clusters with modularity > 0.3",
		Header:     []string{"seed", "entities", "edges", "root-clusters", "modularity"},
	}
	for _, seed := range seeds {
		_, b, err := buildSystem(sc, seed)
		if err != nil {
			return nil, err
		}
		labels := b.Dendrogram.CutAt(pipelineConfig().HAC.StopThreshold)
		q, err := modularity.Compute(b.Graph, labels)
		if err != nil {
			return nil, err
		}
		clusters := make(map[int32]bool)
		for _, l := range labels {
			clusters[l] = true
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", seed), itoa(b.Graph.NumNodes()), itoa(b.Graph.NumEdges()),
			itoa(len(clusters)), f3(q),
		})
	}
	t.Notes = append(t.Notes, "partition: dendrogram cut at the clustering stop threshold")
	return t, nil
}

// E4Scaling sets Parallel HAC against the sequential baseline behind the
// scalability claim of §2.2 (200M item entities within 4 hours on ODPS):
// the same entity graph clustered by sequential HAC, one merge per
// iteration, and by Parallel HAC at r = 0 and the paper's r = 2. Each
// wall time is the fastest of three runs, the variants alternated.
func E4Scaling(sc Scale, seed uint64) (*Table, error) {
	_, b, err := buildSystem(sc, seed)
	if err != nil {
		return nil, err
	}
	g := b.Graph
	sizes := make([]int, len(b.Entities.Entities))
	for i := range sizes {
		sizes[i] = b.Entities.Entities[i].Size()
	}
	t := &Table{
		ID:         "E4",
		Title:      "Parallel HAC vs sequential HAC",
		PaperClaim: "taxonomy for 200M item entities within 4 hours on ODPS",
		Header:     []string{"algorithm", "r", "entities", "rounds", "merges/round", "wall", "entities/sec", "speedup-vs-seq"},
	}

	// r sets only the per-round width: r=0 merges every mutual-best pair,
	// r=2 is the paper's setting, and both form sequential HAC's clusters
	// (up to tie-breaks).
	// Sequential HAC's rounds are its merges.
	type variant struct {
		algo, r        string
		run            func() (rounds, merges int, err error)
		rounds, merges int
		wall           time.Duration
	}
	parallel := func(r int) func() (int, int, error) {
		return func() (int, int, error) {
			res, err := phac.Cluster(context.Background(), g, sizes, phac.Config{
				StopThreshold: stopTh, DiffusionRounds: r,
			})
			if err != nil {
				return 0, 0, err
			}
			return len(res.Rounds), len(res.Dendrogram.Merges), nil
		}
	}
	variants := []*variant{
		{algo: "sequential-hac", r: "-", run: func() (int, int, error) {
			d, err := hac.Cluster(g, sizes, hac.Config{StopThreshold: stopTh})
			if err != nil {
				return 0, 0, err
			}
			return len(d.Merges), len(d.Merges), nil
		}},
		{algo: "parallel-hac", r: "0", run: parallel(0)},
		{algo: "parallel-hac", r: "2", run: parallel(2)},
	}
	for rep := 0; rep < 3; rep++ {
		for _, v := range variants {
			start := time.Now()
			rounds, merges, err := v.run()
			if err != nil {
				return nil, err
			}
			if wall := time.Since(start); rep == 0 || wall < v.wall {
				v.wall = wall
			}
			v.rounds, v.merges = rounds, merges
		}
	}
	n := float64(g.NumNodes())
	seqWall := variants[0].wall
	for _, v := range variants {
		perRound := "-"
		if v.rounds > 0 {
			perRound = fmt.Sprintf("%.1f", float64(v.merges)/float64(v.rounds))
		}
		t.Rows = append(t.Rows, []string{
			v.algo, v.r, itoa(g.NumNodes()), itoa(v.rounds), perRound,
			v.wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", n/v.wall.Seconds()),
			fmt.Sprintf("%.2fx", seqWall.Seconds()/v.wall.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"wall: fastest of three runs, variants alternated; every run is one goroutine",
		"the paper's 4h figure is on a production ODPS cluster; what reproduces here is the shape that makes",
		"distribution possible — far fewer, far wider rounds than sequential HAC's one merge per iteration")
	return t, nil
}

// E5Diffusion reproduces the §2.2 parallelism claim: fewer diffusion
// iterations yield more locally-maximal edges, so more parallel merges
// per round and fewer rounds. It costs no merge quality: every r merges
// reciprocal-best pairs, which for Eq. 4 forms sequential HAC's clusters
// up to tie-breaks (RAC, https://arxiv.org/abs/2105.11653), and the
// same-clusters-as-r0 column checks it. The paper's r = 2 was a parallelism choice for its ODPS
// deployment, not a quality one.
func E5Diffusion(sc Scale, seed uint64, maxR int) (*Table, error) {
	_, b, err := buildSystem(sc, seed)
	if err != nil {
		return nil, err
	}
	g := b.Graph
	sizes := make([]int, len(b.Entities.Entities))
	for i := range sizes {
		sizes[i] = b.Entities.Entities[i].Size()
	}
	t := &Table{
		ID:         "E5",
		Title:      "Diffusion iterations vs parallelism (local maximal edges)",
		PaperClaim: "fewer diffusion iterations => more local maximal edges => higher parallelism (the paper runs r=2 on ODPS)",
		Header:     []string{"r", "round1-selected", "rounds", "merges", "wall", "modularity", "same-clusters-as-r0"},
	}
	var r0 map[string]bool
	for r := 0; r <= maxR; r++ {
		start := time.Now()
		res, err := phac.Cluster(context.Background(), g, sizes, phac.Config{
			StopThreshold: stopTh, DiffusionRounds: r,
		})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		labels := res.Dendrogram.CutAt(stopTh)
		q, err := modularity.Compute(g, labels)
		if err != nil {
			return nil, err
		}
		round1 := 0
		if len(res.Rounds) > 0 {
			round1 = res.Rounds[0].Selected
		}
		clusters := clusterSet(res.Dendrogram)
		if r == 0 {
			r0 = clusters
		}
		t.Rows = append(t.Rows, []string{
			itoa(r), itoa(round1), itoa(len(res.Rounds)),
			itoa(len(res.Dendrogram.Merges)), wall.Round(time.Microsecond).String(), f3(q),
			fmt.Sprint(maps.Equal(clusters, r0)),
		})
	}
	t.Notes = append(t.Notes,
		"round1-selected: node-disjoint merges available in the first round",
		"same-clusters-as-r0: the dendrogram forms the r = 0 clusters, each keyed by its sorted member list;",
		"r changes only how many rounds the merges take, not which clusters form")
	return t, nil
}

// clusterSet keys every cluster a dendrogram forms by its sorted member
// list, so dendrograms that mint ids in different orders compare equal
// when they form the same clusters.
func clusterSet(d *dendrogram.Dendrogram) map[string]bool {
	members := make([][]int32, d.Leaves, d.Leaves+len(d.Merges))
	for i := range members {
		members[i] = []int32{int32(i)}
	}
	out := make(map[string]bool, len(d.Merges))
	for _, m := range d.Merges {
		mem := append(slices.Clone(members[m.A]), members[m.B]...)
		slices.Sort(mem)
		members = append(members, mem)
		out[fmt.Sprint(mem)] = true
	}
	return out
}
