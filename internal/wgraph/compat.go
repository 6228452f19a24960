// compat.go is the whole of what remains of internal/shard: the one
// method the frozen benchmark/replay.go still calls on a build's graph,
// with nothing behind it. Nothing in the root module calls it (CI
// enforces it); the next benchmark-archetype PR deletes this file
// together with that call.

package wgraph

// NumShards always reports one: a CSR is one array set, not a partition.
func (*CSR) NumShards() int { return 1 }
