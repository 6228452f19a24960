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
// shard determinism contract: Diffuse and Cluster read a sharded view
// through its base CSR, so their results over any shard count must be
// byte-identical to the plain CSR's.
func TestShardedObservationallyIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := randomGraph(90, 200, seed)
		base := g.Freeze()
		shardCounts := []int{1, 2, 3, 5, 8, runtime.GOMAXPROCS(0) + 3}

		for _, r := range []int{0, 1, 2, 4} {
			want, err := Diffuse(base, r, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range shardCounts {
				got, err := Diffuse(shard.Partition(base, s), r, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d r=%d shards=%d: Diffuse differs from unsharded", seed, r, s)
				}
			}
		}

		cfg := Config{StopThreshold: 0.15, DiffusionRounds: 2}
		ref, err := Cluster(context.Background(), base, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refBytes := gobBytes(t, ref)
		for _, s := range shardCounts {
			res, err := Cluster(context.Background(), shard.Partition(base, s), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gobBytes(t, res), refBytes) {
				t.Fatalf("seed %d shards=%d: Cluster over sharded view differs", seed, s)
			}
		}
	}
}
