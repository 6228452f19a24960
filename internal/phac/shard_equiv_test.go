package phac

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"shoal/internal/shard"
)

// TestShardedObservationallyIdentical is the phac-level half of the
// shard determinism contract: Diffuse over a sharded CSR (one worker
// per shard) and Cluster at any Shards width must produce results
// byte-identical to the single-shard run.
func TestShardedObservationallyIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := randomGraph(90, 200, seed)
		base := g.Freeze()

		for _, r := range []int{0, 1, 2, 4} {
			want, err := Diffuse(base, r, 0.1, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []int{1, 2, 3, 5, 8, runtime.GOMAXPROCS(0) + 3} {
				got, err := Diffuse(shard.Partition(base, s), r, 0.1, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d r=%d shards=%d: Diffuse differs from single-shard", seed, r, s)
				}
			}
		}

		ref, err := Cluster(context.Background(), base, nil,
			Config{StopThreshold: 0.15, DiffusionRounds: 2, Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		refBytes := gobBytes(t, ref)
		for _, s := range []int{2, 3, 4, 7, runtime.GOMAXPROCS(0) + 3} {
			for _, w := range []int{1, 4} {
				res, err := Cluster(context.Background(), base, nil,
					Config{StopThreshold: 0.15, DiffusionRounds: 2, Workers: w, Shards: s})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gobBytes(t, res), refBytes) {
					t.Fatalf("seed %d shards=%d workers=%d: Cluster differs from single-shard", seed, s, w)
				}
			}
		}
		// A sharded input graph must not change the result either.
		res, err := Cluster(context.Background(), shard.Partition(base, 4), nil,
			Config{StopThreshold: 0.15, DiffusionRounds: 2, Workers: 4, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gobBytes(t, res), refBytes) {
			t.Fatalf("seed %d: Cluster over sharded view differs", seed)
		}
	}
}

// TestShardedRebuildForcedParallel drives Cluster with many shards on a
// larger graph — long worklists, dozens of merges per round — so every
// BSP shard holds real work in every round, and compares against the
// single-shard shared-memory run (which reads no shard count at all).
func TestShardedRebuildForcedParallel(t *testing.T) {
	g := randomGraph(700, 2400, 42)
	base := g.Freeze()
	ref, err := Cluster(context.Background(), base, nil,
		Config{StopThreshold: 0.1, DiffusionRounds: 2, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	refBytes := gobBytes(t, ref)
	for _, s := range []int{2, 6, 16} {
		for _, useBSP := range []bool{false, true} {
			res, err := Cluster(context.Background(), base, nil,
				Config{StopThreshold: 0.1, DiffusionRounds: 2, Workers: 4, Shards: s, UseBSP: useBSP})
			if err != nil {
				t.Fatal(err)
			}
			res.BSP = nil // the engine's profile, not clustering output
			if !bytes.Equal(gobBytes(t, res), refBytes) {
				t.Fatalf("shards=%d bsp=%v: differs from single-shard", s, useBSP)
			}
		}
	}
}
