// compat.go is the whole of what remains of the cross-build clustering
// warm start, of the BSP clustering twin and of the frontier-density
// gate: the names the frozen benchmark/replay.go still compiles against,
// with nothing behind them. Nothing in the root module calls them (CI
// enforces it); the next benchmark-archetype PR deletes this file
// together with those calls.

package phac

import (
	"context"

	"shoal/internal/wgraph"
)

// NoStats carries nothing: it is the type of Result.BSP and of core
// Build's BSPStats field, both always nil.
type NoStats struct{}

// Memo carries nothing: every clustering starts from scratch.
type Memo struct{}

// IncompatibleReason always reports that there is no memo to consume.
func (*Memo) IncompatibleReason(int, Config) string { return "no-memo" }

// ClusterWarm is Cluster; prev and dirtyRows are ignored and the
// returned Memo is always nil.
func ClusterWarm(ctx context.Context, g *wgraph.CSR, sizes []int, cfg Config, _ *Memo, _ []int32) (*Result, *Memo, error) {
	res, err := Cluster(ctx, g, sizes, cfg)
	return res, nil, err
}

// DefaultFrontierDensity is the default of the deleted frontier-density
// gate; the frozen benchmark/replay.go writes it into core.Build's inert
// FrontierDensity field.
const DefaultFrontierDensity = 0.25
