package phac

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"shoal/internal/shard"
	"shoal/internal/wgraph"
)

// frontier density extremes: -1 disables pruning entirely (every
// iteration dense), 2 prunes every iteration that can be (the changed
// fraction can never exceed 2; Diffuse's first one is always dense).
var densities = []float64{-1, 0, 2}

// TestFrontierMatchesDense is the frontier half of the determinism
// contract at the Diffuse level: pruned and dense exchange must produce
// byte-identical matchings for every rounds × workers × shards
// combination, including shard counts past GOMAXPROCS.
func TestFrontierMatchesDense(t *testing.T) {
	shardCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0) + 3}
	for seed := uint64(1); seed <= 6; seed++ {
		g := randomGraph(90, 220, seed)
		base := g.Freeze()
		for _, r := range []int{0, 1, 2, 4, 7} {
			want, err := diffuse(base, r, 0.1, 1, -1) // dense reference
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range densities {
				for _, w := range []int{1, 3} {
					got, err := diffuse(base, r, 0.1, w, d)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d r=%d density=%v workers=%d: differs from dense", seed, r, d, w)
					}
				}
				for _, s := range shardCounts {
					got, err := diffuse(shard.Partition(base, s), r, 0.1, 0, d)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d r=%d density=%v shards=%d: sharded differs from dense", seed, r, d, s)
					}
				}
			}
		}
	}
}

// TestClusterFrontierMatchesDense pins Cluster byte-identical for
// pruning on/off/forced across worker × shard combinations — the
// memoized cross-round diffusion must reproduce the dense recomputation
// exactly.
func TestClusterFrontierMatchesDense(t *testing.T) {
	wide := runtime.GOMAXPROCS(0) + 3
	for seed := uint64(1); seed <= 5; seed++ {
		g := randomGraph(120, 320, seed)
		base := g.Freeze()
		ref, err := Cluster(context.Background(), base, nil,
			Config{StopThreshold: 0.12, DiffusionRounds: 2, Workers: 1, Shards: 1, FrontierDensity: -1})
		if err != nil {
			t.Fatal(err)
		}
		refBytes := gobBytes(t, ref)
		for _, d := range densities {
			for _, cw := range [][2]int{{1, 1}, {4, 3}, {4, wide}} {
				res, err := Cluster(context.Background(), base, nil,
					Config{StopThreshold: 0.12, DiffusionRounds: 2, Workers: cw[0], Shards: cw[1], FrontierDensity: d})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gobBytes(t, res), refBytes) {
					t.Fatalf("seed %d density=%v workers=%d shards=%d: Cluster differs from dense single-shard", seed, d, cw[0], cw[1])
				}
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
	match := wgraph.New(20)
	for i := int32(0); i < 20; i += 2 {
		if err := match.SetEdge(i, i+1, 0.5+float64(i)/100); err != nil {
			t.Fatal(err)
		}
	}
	// Chain: values stop propagating after a few hops.
	chain := wgraph.New(9)
	for i := int32(0); i+1 < 9; i++ {
		if err := chain.SetEdge(i, i+1, 0.3+float64(i)/20); err != nil {
			t.Fatal(err)
		}
	}
	for name, g := range map[string]*wgraph.Graph{"matching": match, "chain": chain} {
		base := g.Freeze()
		for _, r := range []int{1, 2, 6, 12} {
			want, err := diffuse(base, r, 0.1, 1, -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []float64{0, 2} {
				got, err := diffuse(base, r, 0.1, 1, d)
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
			Config{StopThreshold: 0.1, DiffusionRounds: 6, Workers: 1, Shards: 1, FrontierDensity: -1})
		if err != nil {
			t.Fatal(err)
		}
		refBytes := gobBytes(t, ref)
		for _, d := range []float64{0, 2} {
			res, err := Cluster(context.Background(), base, nil,
				Config{StopThreshold: 0.1, DiffusionRounds: 6, Workers: 2, Shards: 2, FrontierDensity: d})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gobBytes(t, res), refBytes) {
				t.Fatalf("%s density=%v: Cluster differs after frontier collapse", name, d)
			}
		}
	}
}
