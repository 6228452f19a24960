package phac

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"

	"shoal/internal/wgraph"
	"shoal/internal/wgraph/wgraphtest"
)

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frontier density extremes: -1 disables pruning entirely (every
// iteration dense), 2 prunes every iteration that can be (the changed
// fraction can never exceed 2; Diffuse's first one is always dense).
var densities = []float64{-1, 0, 2}

// TestFrontierMatchesDense is the frontier half of the determinism
// contract at the Diffuse level: pruned and dense exchange must produce
// byte-identical matchings for every rounds × density combination.
func TestFrontierMatchesDense(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		base := wgraphtest.Random(90, 220, seed)
		for _, r := range []int{0, 1, 2, 4, 7} {
			want, err := diffuse(base, r, 0.1, -1) // dense reference
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range densities {
				got, err := diffuse(base, r, 0.1, d)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d r=%d density=%v: differs from dense", seed, r, d)
				}
			}
		}
	}
}

// TestClusterFrontierMatchesDense pins Cluster byte-identical for
// pruning on/off/forced — the memoized cross-round diffusion must
// reproduce the dense recomputation exactly.
func TestClusterFrontierMatchesDense(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		base := wgraphtest.Random(120, 320, seed)
		ref, err := Cluster(context.Background(), base, nil,
			Config{StopThreshold: 0.12, DiffusionRounds: 2, FrontierDensity: -1})
		if err != nil {
			t.Fatal(err)
		}
		refBytes := gobBytes(t, ref)
		for _, d := range densities {
			res, err := Cluster(context.Background(), base, nil,
				Config{StopThreshold: 0.12, DiffusionRounds: 2, FrontierDensity: d})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gobBytes(t, res), refBytes) {
				t.Fatalf("seed %d density=%v: Cluster differs from dense", seed, d)
			}
		}
	}
}

// TestFrontierCollapseMidRound drives diffusion on graphs whose
// exchange converges long before the round budget — a perfect matching
// (frontier collapses to zero after the first iteration) and a short
// chain (collapse mid-loop) — and checks the early-exit path against
// the dense reference.
func TestFrontierCollapseMidRound(t *testing.T) {
	// Perfect matching: node 2i — 2i+1 only. Every node knows its own
	// edge after init; no exchange ever changes anything.
	var match, chain []wgraph.Edge
	for i := int32(0); i < 20; i += 2 {
		match = append(match, wgraph.Edge{U: i, V: i + 1, W: 0.5 + float64(i)/100})
	}
	// Chain: values stop propagating after a few hops.
	for i := int32(0); i+1 < 9; i++ {
		chain = append(chain, wgraph.Edge{U: i, V: i + 1, W: 0.3 + float64(i)/20})
	}
	for name, base := range map[string]*wgraph.CSR{
		"matching": wgraphtest.Build(t, 20, match...),
		"chain":    wgraphtest.Build(t, 9, chain...),
	} {
		for _, r := range []int{1, 2, 6, 12} {
			want, err := diffuse(base, r, 0.1, -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []float64{0, 2} {
				got, err := diffuse(base, r, 0.1, d)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s r=%d density=%v: early-exit result differs from dense", name, r, d)
				}
			}
		}
		// Cluster on the same shapes: the memoized rounds must survive a
		// zero frontier mid-run at every density.
		ref, err := Cluster(context.Background(), base, nil,
			Config{StopThreshold: 0.1, DiffusionRounds: 6, FrontierDensity: -1})
		if err != nil {
			t.Fatal(err)
		}
		refBytes := gobBytes(t, ref)
		for _, d := range []float64{0, 2} {
			res, err := Cluster(context.Background(), base, nil,
				Config{StopThreshold: 0.1, DiffusionRounds: 6, FrontierDensity: d})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gobBytes(t, res), refBytes) {
				t.Fatalf("%s density=%v: Cluster differs after frontier collapse", name, d)
			}
		}
	}
}
