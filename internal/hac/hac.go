// Package hac implements classic sequential hierarchical agglomerative
// clustering on a sparse similarity graph — the baseline Parallel HAC is
// measured against (paper §2.2).
//
// Each iteration merges the single globally most-similar pair, then updates
// the merged node's neighborhood with the paper's Eq. 4 √-normalized rule:
//
//	S(AB,C) = √nA/(√nA+√nB)·S(A,C) + √nB/(√nA+√nB)·S(B,C)
//
// with S treated as 0 when an edge is absent (the sparse-matrix relaxation
// of §2.2 Challenge 1). Clustering stops when no remaining edge reaches the
// stop threshold. The O(E log E) heap-based implementation still scans the
// whole frontier once per merge in the worst case, which is exactly the
// scalability wall (Challenge 2) that motivates Parallel HAC.
package hac

import (
	"container/heap"
	"fmt"
	"math"

	"shoal/internal/dendrogram"
	"shoal/internal/wgraph"
)

// Config controls sequential HAC.
type Config struct {
	// StopThreshold ends clustering when the best remaining similarity
	// falls below it.
	StopThreshold float64
	// MaxMerges caps the number of merges; 0 means unlimited.
	MaxMerges int
}

// DefaultConfig stops at similarity 0.35.
func DefaultConfig() Config { return Config{StopThreshold: 0.35} }

// Cluster runs HAC over g with initial cluster sizes sizes[i] (nil means
// all 1). It returns the merge dendrogram; leaf ids are graph node ids. The
// graph is not modified: its rows are read once, into the per-cluster
// neighbor maps the merges rewrite.
func Cluster(g *wgraph.CSR, sizes []int, cfg Config) (*dendrogram.Dendrogram, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("hac: empty graph")
	}
	if cfg.StopThreshold < 0 || cfg.StopThreshold > 1 {
		return nil, fmt.Errorf("hac: StopThreshold must be in [0,1], got %f", cfg.StopThreshold)
	}
	if sizes != nil && len(sizes) != n {
		return nil, fmt.Errorf("hac: sizes length %d != nodes %d", len(sizes), n)
	}

	// Mutable clustering state. Node ids grow as merges mint new ids, so
	// adjacency is a growable slice of maps; alive[id] marks current
	// clusters.
	type state struct {
		adj   []map[int32]float64
		size  []float64 // √-rule uses sizes; keep as float for weights
		alive []bool
	}
	capHint := 2 * n
	st := &state{
		adj:   make([]map[int32]float64, n, capHint),
		size:  make([]float64, n, capHint),
		alive: make([]bool, n, capHint),
	}
	for i := 0; i < n; i++ {
		st.alive[i] = true
		st.size[i] = 1
		if sizes != nil {
			if sizes[i] <= 0 {
				return nil, fmt.Errorf("hac: non-positive size for node %d", i)
			}
			st.size[i] = float64(sizes[i])
		}
	}
	// One row scan feeds both the adjacency state and the heap; the
	// u < v entries of ascending rows are the canonical (U, V) edge order.
	offsets, nbrs, wts := g.Adj()
	pq := make(edgeHeap, 0, g.NumEdges())
	for u := int32(0); int(u) < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		if lo == hi {
			continue
		}
		row := make(map[int32]float64, hi-lo)
		for j := lo; j < hi; j++ {
			v, w := nbrs[j], wts[j]
			row[v] = w
			if u < v {
				pq = append(pq, heapEdge{u: u, v: v, sim: w})
			}
		}
		st.adj[u] = row
	}
	heap.Init(&pq)

	d := &dendrogram.Dendrogram{Leaves: n}
	round := int32(0)
	for pq.Len() > 0 {
		if cfg.MaxMerges > 0 && len(d.Merges) >= cfg.MaxMerges {
			break
		}
		top := heap.Pop(&pq).(heapEdge)
		if top.sim < cfg.StopThreshold {
			break
		}
		u, v := top.u, top.v
		if !st.alive[u] || !st.alive[v] {
			continue // stale heap entry
		}
		cur, ok := st.adj[u][v]
		if !ok || cur != top.sim {
			continue // edge updated since enqueued
		}

		newID := int32(len(st.adj))
		st.adj = append(st.adj, make(map[int32]float64))
		st.size = append(st.size, st.size[u]+st.size[v])
		st.alive = append(st.alive, true)
		st.alive[u] = false
		st.alive[v] = false

		wu := math.Sqrt(st.size[u])
		wv := math.Sqrt(st.size[v])
		den := wu + wv

		// Gather the union of neighborhoods; Eq. 4 with missing edges
		// contributing 0.
		for x, s := range st.adj[u] {
			if x == v {
				continue
			}
			st.adj[newID][x] = wu / den * s
		}
		for x, s := range st.adj[v] {
			if x == u {
				continue
			}
			// The explicit conversion keeps the product rounded, so no
			// platform fuses the sum into one multiply-add.
			st.adj[newID][x] += float64(wv / den * s)
		}
		// Rewire neighbors and enqueue updated edges.
		for x, s := range st.adj[newID] {
			delete(st.adj[x], u)
			delete(st.adj[x], v)
			st.adj[x][newID] = s
			if s >= cfg.StopThreshold {
				heap.Push(&pq, heapEdge{u: newID, v: x, sim: s})
			}
		}
		st.adj[u] = nil
		st.adj[v] = nil

		d.Merges = append(d.Merges, dendrogram.Merge{
			A: u, B: v, New: newID, Sim: top.sim, Round: round,
		})
		round++
	}
	return d, nil
}

// heapEdge is a candidate merge in the lazy-deletion heap.
type heapEdge struct {
	u, v int32
	sim  float64
}

type edgeHeap []heapEdge

func (h edgeHeap) Len() int { return len(h) }

// Less orders by similarity descending, then canonical edge id ascending so
// ties are deterministic.
func (h edgeHeap) Less(i, j int) bool {
	if h[i].sim != h[j].sim {
		return h[i].sim > h[j].sim
	}
	iu, iv := canon(h[i].u, h[i].v)
	ju, jv := canon(h[j].u, h[j].v)
	if iu != ju {
		return iu < ju
	}
	return iv < jv
}

func (h edgeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *edgeHeap) Push(x any) { *h = append(*h, x.(heapEdge)) }

func (h *edgeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func canon(u, v int32) (int32, int32) {
	if u < v {
		return u, v
	}
	return v, u
}
