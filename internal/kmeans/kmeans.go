// Package kmeans implements spherical k-means over dense float32 vectors.
//
// The paper's Related Studies position SHOAL against clustering methods
// that "learn the representation of terms and then organize them into a
// structure based on the representation similarity" (TaxoGen and kin).
// This package is that family's representative baseline: cluster item
// entities purely by their title-embedding vectors, ignoring the query
// coalition signal. Experiment E10 compares it with Parallel HAC.
package kmeans

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Config controls clustering.
type Config struct {
	// K is the number of clusters.
	K int
	// MaxIters bounds Lloyd iterations.
	MaxIters int
	// Seed drives k-means++ initialization.
	Seed uint64
	// Tolerance stops early when the fraction of points changing
	// assignment drops below it.
	Tolerance float64
}

// DefaultConfig runs up to 50 iterations with a 0.1% movement tolerance.
func DefaultConfig(k int) Config {
	return Config{K: k, MaxIters: 50, Seed: 1, Tolerance: 0.001}
}

// Result is a clustering outcome.
type Result struct {
	// Assign[i] is the cluster of point i in [0, K).
	Assign []int32
	// Centroids are the final unit-normalized cluster centers.
	Centroids [][]float32
	// Iters is the number of Lloyd iterations executed.
	Iters int
}

// Cluster partitions points (each a vector of equal dimension) into K
// clusters by cosine similarity (spherical k-means with k-means++ seeding).
// Nil or zero vectors are assigned to cluster 0 and ignored during
// centroid updates.
func Cluster(points [][]float32, cfg Config) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if cfg.K <= 0 || cfg.K > n {
		return nil, fmt.Errorf("kmeans: K=%d outside [1,%d]", cfg.K, n)
	}
	if cfg.MaxIters <= 0 {
		return nil, fmt.Errorf("kmeans: MaxIters must be positive")
	}
	dim := 0
	for _, p := range points {
		if p != nil {
			dim = len(p)
			break
		}
	}
	if dim == 0 {
		return nil, fmt.Errorf("kmeans: all points are nil")
	}
	for i, p := range points {
		if p != nil && len(p) != dim {
			return nil, fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(p), dim)
		}
	}

	// Unit-normalize a copy of the inputs.
	normed := make([][]float32, n)
	for i, p := range points {
		normed[i] = normalize(p)
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x4B4D))
	centroids := seedPlusPlus(normed, cfg.K, rng)

	assign := make([]int32, n)
	res := &Result{Assign: assign}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		res.Iters = iter + 1
		moved := 0
		for i, p := range normed {
			if p == nil {
				assign[i] = 0
				continue
			}
			best, bestSim := int32(0), math.Inf(-1)
			for c, cent := range centroids {
				s := dot(p, cent)
				if s > bestSim {
					best, bestSim = int32(c), s
				}
			}
			if assign[i] != best {
				moved++
				assign[i] = best
			}
		}
		// Update centroids.
		sums := make([][]float64, cfg.K)
		counts := make([]int, cfg.K)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range normed {
			if p == nil {
				continue
			}
			c := assign[i]
			counts[c]++
			for d, v := range p {
				sums[c][d] += float64(v)
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Empty cluster: reseed from a random point.
				centroids[c] = reseed(normed, rng)
				continue
			}
			nc := make([]float32, dim)
			for d := range nc {
				nc[d] = float32(sums[c][d] / float64(counts[c]))
			}
			centroids[c] = normalize(nc)
		}
		if float64(moved)/float64(n) < cfg.Tolerance {
			break
		}
	}
	res.Centroids = centroids
	return res, nil
}

// seedPlusPlus picks K initial centroids: the first uniformly, the rest
// weighted by squared cosine distance to the nearest chosen centroid.
func seedPlusPlus(points [][]float32, k int, rng *rand.Rand) [][]float32 {
	centroids := make([][]float32, 0, k)
	first := reseed(points, rng)
	centroids = append(centroids, first)
	dists := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			if p == nil {
				dists[i] = 0
				continue
			}
			best := math.Inf(1)
			for _, c := range centroids {
				d := 1 - dot(p, c)
				if d < best {
					best = d
				}
			}
			dists[i] = float64(best * best)
			total += dists[i]
		}
		if total == 0 {
			centroids = append(centroids, reseed(points, rng))
			continue
		}
		target := rng.Float64() * total
		var cum float64
		pick := -1
		for i, d := range dists {
			cum += d
			if cum >= target {
				pick = i
				break
			}
		}
		if pick < 0 || points[pick] == nil {
			centroids = append(centroids, reseed(points, rng))
			continue
		}
		centroids = append(centroids, normalize(points[pick]))
	}
	return centroids
}

// reseed returns a copy of a random non-nil point, or a unit vector if all
// points are nil.
func reseed(points [][]float32, rng *rand.Rand) []float32 {
	for tries := 0; tries < 4*len(points); tries++ {
		p := points[rng.IntN(len(points))]
		if p != nil {
			return normalize(p)
		}
	}
	for _, p := range points {
		if p != nil {
			out := make([]float32, len(p))
			out[0] = 1
			return out
		}
	}
	return []float32{1}
}

func normalize(p []float32) []float32 {
	if p == nil {
		return nil
	}
	var n float64
	for _, v := range p {
		n += float64(float64(v) * float64(v))
	}
	if n == 0 {
		return nil
	}
	n = math.Sqrt(n)
	out := make([]float32, len(p))
	for i, v := range p {
		out[i] = float32(float64(v) / n)
	}
	return out
}

func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(float64(a[i]) * float64(b[i]))
	}
	return s
}
