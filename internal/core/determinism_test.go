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
// width determinism contract: the one width that varies a build's
// execution is GOMAXPROCS (the entity graph splits its candidate rows
// by it, the slide's tail its per-topic and per-query loops), and the
// full pipeline must produce byte-identical graphs, dendrograms,
// taxonomies and descriptions at every value of it, from one worker up
// past the test's own GOMAXPROCS.
func TestWorkersObservationallyIdentical(t *testing.T) {
	corpus := smallCorpus(t)
	run := func(procs int) *Build {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		b, err := Run(corpus, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := run(1)
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0) + 3} {
		b := run(w)
		if !gobEqual(t, b.Graph.Edges(), ref.Graph.Edges()) {
			t.Fatalf("GOMAXPROCS=%d: entity graph differs from GOMAXPROCS=1", w)
		}
		if !gobEqual(t, b.Dendrogram, ref.Dendrogram) {
			t.Fatalf("GOMAXPROCS=%d: dendrogram differs from GOMAXPROCS=1", w)
		}
		if !gobEqual(t, b.Taxonomy, ref.Taxonomy) {
			t.Fatalf("GOMAXPROCS=%d: taxonomy differs from GOMAXPROCS=1", w)
		}
		if !gobEqual(t, b.Descriptions, ref.Descriptions) {
			t.Fatalf("GOMAXPROCS=%d: descriptions differ from GOMAXPROCS=1", w)
		}
	}
}
