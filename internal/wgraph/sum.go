package wgraph

// Canonical edge-weight summation.
//
// Both holders of the "total edge weight" aggregate — FromEdges, and
// entitygraph's CSR patch, which fills its arrays itself and hands them
// to FromParts — must produce byte-identical float64 values, or a
// patched build stops being byte-equal to a from-scratch one. Float
// addition is not associative, so the summation *shape* is part of the
// contract: addends are the canonical (U,V)-sorted edge weights,
// left-folded within fixed blocks of WeightSumBlockSize addends, and the
// block partials are left-folded in block order. The shape depends only
// on the addend sequence, so a builder that streams the kept edges in
// canonical order reproduces the FromEdges value exactly (pinned by
// entitygraph's TestEmitMatchesCanonicalBuilder).

// WeightSumBlockSize is the fixed addend-block width of the canonical
// total-weight summation.
const WeightSumBlockSize = 4096

// FoldWeightBlocks left-folds per-block partial sums in block order —
// the reduction half of the canonical summation, exposed for builders
// that accumulate the block partials themselves (each block a left fold
// over its WeightSumBlockSize addends, the final block possibly short).
func FoldWeightBlocks(sums []float64) float64 {
	var t float64
	for _, b := range sums {
		t += b
	}
	return t
}
