package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"runtime"
	"testing"

	"shoal/internal/phac"
)

func gobEqual(t *testing.T, a, b any) bool {
	t.Helper()
	var ba, bb bytes.Buffer
	if err := gob.NewEncoder(&ba).Encode(a); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&bb).Encode(b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ba.Bytes(), bb.Bytes())
}

// TestDendrogramIsClusterOfBuildGraph pins what the parallel-hac stage
// feeds the clusterer: re-running phac.Cluster over the build's own
// graph, entity sizes and HAC config reproduces the build's dendrogram.
func TestDendrogramIsClusterOfBuildGraph(t *testing.T) {
	cfg := testConfig()
	b, err := Run(smallCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(b.Entities.Entities))
	for i := range sizes {
		sizes[i] = b.Entities.Entities[i].Size()
	}
	res, err := phac.Cluster(context.Background(), b.Graph, sizes, cfg.HAC)
	if err != nil {
		t.Fatal(err)
	}
	if !gobEqual(t, b.Dendrogram, res.Dendrogram) {
		t.Fatal("pipeline dendrogram differs from re-clustering the build's graph")
	}
}

// TestWorkersObservationallyIdentical is the taxonomy-level half of the
// width determinism contract: the one width left that varies a build's
// execution is the entity graph's worker count (it splits candidate rows
// and scoring), and the full pipeline must produce byte-identical
// graphs, dendrograms, taxonomies and descriptions for every value of
// it, from a single worker up past GOMAXPROCS.
func TestWorkersObservationallyIdentical(t *testing.T) {
	corpus := smallCorpus(t)
	baseCfg := testConfig()
	baseCfg.Graph.Workers = 1
	ref, err := Run(corpus, baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0) + 3} {
		cfg := testConfig()
		cfg.Graph.Workers = w
		b, err := Run(corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !gobEqual(t, b.Graph.Edges(), ref.Graph.Edges()) {
			t.Fatalf("workers=%d: entity graph differs from single-worker", w)
		}
		if !gobEqual(t, b.Dendrogram, ref.Dendrogram) {
			t.Fatalf("workers=%d: dendrogram differs from single-worker", w)
		}
		if !gobEqual(t, b.Taxonomy, ref.Taxonomy) {
			t.Fatalf("workers=%d: taxonomy differs from single-worker", w)
		}
		if !gobEqual(t, b.Descriptions, ref.Descriptions) {
			t.Fatalf("workers=%d: descriptions differ from single-worker", w)
		}
	}
}

// TestFrontierObservationallyIdentical is the taxonomy-level half of the
// frontier determinism contract: the full pipeline must produce
// byte-identical dendrograms, taxonomies and descriptions with frontier
// pruning disabled (-1), default, and forced on every iteration (2).
func TestFrontierObservationallyIdentical(t *testing.T) {
	corpus := smallCorpus(t)
	baseCfg := testConfig()
	baseCfg.HAC.FrontierDensity = -1 // dense reference
	ref, err := Run(corpus, baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0, 2} {
		cfg := testConfig()
		cfg.HAC.FrontierDensity = d
		b, err := Run(corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !gobEqual(t, b.Dendrogram, ref.Dendrogram) {
			t.Fatalf("density=%v: dendrogram differs from dense", d)
		}
		if !gobEqual(t, b.Taxonomy, ref.Taxonomy) {
			t.Fatalf("density=%v: taxonomy differs from dense", d)
		}
		if !gobEqual(t, b.Descriptions, ref.Descriptions) {
			t.Fatalf("density=%v: descriptions differ from dense", d)
		}
	}
}
