// Package dendrogram records the merge history produced by hierarchical
// agglomerative clustering and derives flat or multi-level partitions from
// it. Both the sequential baseline (internal/hac) and Parallel HAC
// (internal/phac) emit the same structure, so quality metrics and the topic
// tree builder are agnostic to which algorithm ran.
package dendrogram

import (
	"fmt"
	"slices"
)

// Merge is one agglomeration step: clusters A and B combined into a new
// cluster New at similarity Sim during round Round (sequential HAC uses one
// round per merge; Parallel HAC merges many pairs per round).
type Merge struct {
	A, B, New int32
	Sim       float64
	Round     int32
}

// Dendrogram is a merge forest over Leaves initial singleton clusters.
// Cluster ids: leaves are 0..Leaves-1; the i-th merge creates id Leaves+i.
type Dendrogram struct {
	Leaves int
	Merges []Merge
}

// Validate checks well-formedness: every merge combines two distinct,
// previously unmerged, existing clusters and mints the next sequential id.
func (d *Dendrogram) Validate() error {
	if d.Leaves < 0 {
		return fmt.Errorf("dendrogram: negative leaf count %d", d.Leaves)
	}
	merged := make([]bool, d.Leaves+len(d.Merges))
	for i, m := range d.Merges {
		want := int32(d.Leaves + i)
		if m.New != want {
			return fmt.Errorf("dendrogram: merge %d mints id %d, want %d", i, m.New, want)
		}
		if m.A == m.B {
			return fmt.Errorf("dendrogram: merge %d combines cluster %d with itself", i, m.A)
		}
		for _, c := range []int32{m.A, m.B} {
			if c < 0 || c >= want {
				return fmt.Errorf("dendrogram: merge %d references cluster %d not yet created", i, c)
			}
			if merged[c] {
				return fmt.Errorf("dendrogram: merge %d reuses already-merged cluster %d", i, c)
			}
		}
		merged[m.A] = true
		merged[m.B] = true
		if m.Round < 0 {
			return fmt.Errorf("dendrogram: merge %d has negative round", i)
		}
	}
	return nil
}

// Size returns the number of leaves under cluster id.
func (d *Dendrogram) Size(id int32) int {
	if id < int32(d.Leaves) {
		return 1
	}
	m := d.Merges[id-int32(d.Leaves)]
	return d.Size(m.A) + d.Size(m.B)
}

// Members returns the leaf ids under cluster id, ascending.
func (d *Dendrogram) Members(id int32) []int32 {
	var out []int32
	var walk func(int32)
	walk = func(c int32) {
		if c < int32(d.Leaves) {
			out = append(out, c)
			return
		}
		m := d.Merges[c-int32(d.Leaves)]
		walk(m.A)
		walk(m.B)
	}
	walk(id)
	// Members come out in traversal order; sort for stable output.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// CutAt returns a flat partition: only merges with Sim >= threshold are
// applied, and each leaf is labeled with its resulting cluster's smallest
// leaf id. Higher thresholds give finer partitions.
func (d *Dendrogram) CutAt(threshold float64) []int32 {
	labels := make([]int32, d.Leaves)
	d.CutInto(labels, threshold, nil)
	return labels
}

// CutInto is CutAt writing the labels into labels (length Leaves) and
// working in scratch, which it returns grown to what a cut needs: cuts
// of one dendrogram at several thresholds allocate their union-find once
// when each passes the scratch the last returned.
func (d *Dendrogram) CutInto(labels []int32, threshold float64, scratch []int32) []int32 {
	n := d.Leaves + len(d.Merges)
	scratch = slices.Grow(scratch[:0], 2*n)[:2*n]
	uf := unionFind{parent: scratch[:n]}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	for _, m := range d.Merges {
		if m.Sim >= threshold {
			uf.unionInto(m.A, m.New)
			uf.unionInto(m.B, m.New)
		}
	}
	uf.leafLabels(labels, scratch[n:])
	return scratch
}

// Roots returns the cluster ids that were never merged into a larger
// cluster — the final forest roots (the paper's root topics), ascending.
func (d *Dendrogram) Roots() []int32 {
	merged := make([]bool, d.Leaves+len(d.Merges))
	for _, m := range d.Merges {
		merged[m.A] = true
		merged[m.B] = true
	}
	var out []int32
	for id := int32(0); int(id) < len(merged); id++ {
		if !merged[id] {
			out = append(out, id)
		}
	}
	return out
}

// Children returns the direct children of cluster id: the two merged
// clusters for an internal node, nil for a leaf.
func (d *Dendrogram) Children(id int32) []int32 {
	if id < int32(d.Leaves) {
		return nil
	}
	m := d.Merges[id-int32(d.Leaves)]
	return []int32{m.A, m.B}
}

// Sim returns the merge similarity that created cluster id, or 1 for
// leaves (a singleton is perfectly self-similar).
func (d *Dendrogram) Sim(id int32) float64 {
	if id < int32(d.Leaves) {
		return 1
	}
	return d.Merges[id-int32(d.Leaves)].Sim
}

// unionFind tracks cluster membership through merges.
type unionFind struct {
	parent []int32
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// unionInto attaches x's root under the cluster id `into` (which is its own
// root by construction: merge ids are minted fresh).
func (uf *unionFind) unionInto(x, into int32) {
	uf.parent[uf.find(x)] = into
}

// leafLabels writes, for each leaf, the smallest leaf id within its
// final cluster into out — a canonical partition labeling. Leaves are
// visited in ascending order, so the first leaf that reaches a root is
// that cluster's smallest: one dense pass, indexed by root. minLeaf has
// one entry per cluster id; its contents are overwritten.
func (uf *unionFind) leafLabels(out, minLeaf []int32) {
	// minLeaf[r] is 1 + the smallest leaf under root r, 0 while unseen.
	clear(minLeaf)
	for l := range out {
		r := uf.find(int32(l))
		if minLeaf[r] == 0 {
			minLeaf[r] = int32(l) + 1
		}
		out[l] = minLeaf[r] - 1
	}
}
