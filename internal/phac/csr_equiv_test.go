package phac

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"

	"shoal/internal/modularity"
)

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusteringIdenticalOnCSR is the clustering half of the CSR
// equivalence property: Diffuse, Cluster, and modularity.Compute must
// produce byte-identical results whether fed the mutable builder or its
// frozen CSR.
func TestClusteringIdenticalOnCSR(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := randomGraph(90, 200, seed)
		c := g.Clone().Freeze() // independent snapshot: no shared memo

		for _, r := range []int{0, 1, 2, 4} {
			selG, err := Diffuse(g, r, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			selC, err := Diffuse(c, r, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(selG, selC) {
				t.Fatalf("seed %d r=%d: Diffuse differs on CSR", seed, r)
			}
		}

		cfg := Config{StopThreshold: 0.15, DiffusionRounds: 2}
		resG, err := Cluster(context.Background(), g, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resC, err := Cluster(context.Background(), c, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gobBytes(t, resG), gobBytes(t, resC)) {
			t.Fatalf("seed %d: Cluster result differs on CSR", seed)
		}

		labels := resG.Dendrogram.CutAt(0.15)
		qG, err := modularity.Compute(g, labels)
		if err != nil {
			t.Fatal(err)
		}
		qC, err := modularity.Compute(c, labels)
		if err != nil {
			t.Fatal(err)
		}
		if qG != qC {
			t.Fatalf("seed %d: modularity %v on Graph != %v on CSR", seed, qG, qC)
		}
	}
}

// TestClusterZeroAllocDiffusion locks in the tentpole win: once the
// state CSR is built, a diffusion pass over it must not allocate — no
// phase forks (no goroutines, no closures).
func TestClusterZeroAllocDiffusion(t *testing.T) {
	g := randomGraph(512, 1024, 3)
	c := g.Freeze()
	st := newState(c, nil, Config{StopThreshold: 0.1, DiffusionRounds: 2})
	// Warm the scratch buffers once.
	st.selectLocalMaxima(2, 0.1)
	allocs := testing.AllocsPerRun(20, func() {
		st.selectLocalMaxima(2, 0.1)
	})
	if allocs > 0 {
		t.Fatalf("diffusion+selection allocated %.1f objects per round, want 0", allocs)
	}
}
