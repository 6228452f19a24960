package wgraph

// Canonical edge-weight summation.
//
// Every holder of the "total edge weight" aggregate — the mutable
// builder, Freeze, FromEdges, and entitygraph's CSR patch, which fills
// its arrays itself and hands them to FromParts — must produce
// byte-identical float64 values, or the observational-equivalence
// contracts break. Float addition is not associative, so the summation
// *shape* is part of the contract: addends are the canonical
// (U,V)-sorted edge weights, left-folded within fixed blocks of
// WeightSumBlockSize addends, and the block partials are left-folded in
// block order. The shape depends only on the addend sequence, so a
// builder that streams the kept edges in canonical order reproduces the
// FromEdges value exactly (pinned by entitygraph's
// TestEmitMatchesCanonicalBuilder).

// WeightSumBlockSize is the fixed addend-block width of the canonical
// total-weight summation.
const WeightSumBlockSize = 4096

// weightSummer streams addends through the canonical blocked summation.
type weightSummer struct {
	partial float64
	count   int
	sums    []float64
}

func (s *weightSummer) add(w float64) {
	s.partial += w
	if s.count++; s.count == WeightSumBlockSize {
		s.sums = append(s.sums, s.partial)
		s.partial, s.count = 0, 0
	}
}

func (s *weightSummer) total() float64 {
	t := FoldWeightBlocks(s.sums)
	if s.count > 0 {
		t += s.partial
	}
	return t
}

// SumEdgeWeights returns the canonical blocked sum of the edge weights
// in input order. The input must already be in canonical (U,V) order for
// the result to match the cached CSR total.
func SumEdgeWeights(edges []Edge) float64 {
	var s weightSummer
	for i := range edges {
		s.add(edges[i].W)
	}
	return s.total()
}

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
