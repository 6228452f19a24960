package main

import (
	"math"
	"net/http"
	"slices"
	"time"
)

// discard is the reused ResponseWriter of the in-process client: it
// keeps the status and drops the body, so the burst loop measures the
// program's request path and allocates nothing of its own.
type discard struct {
	header http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(code int)        { d.status = code }

// client is one closed-loop in-process client: it sends the next
// request only after the previous one returned. Every request of the
// workloads is expected to answer 200 (garbage queries included).
type client struct {
	pool []request
	w    discard
}

func newClient(pool []request) *client {
	return &client{pool: pool, w: discard{header: make(http.Header, 4)}}
}

// burst sends pool[idx[i]] for every i, stores request i's latency in
// ns into lat[i] and returns how many answered anything but 200. It
// allocates nothing; lat must be at least as long as idx.
func (c *client) burst(h http.Handler, idx []int32, lat []int32) (failed int) {
	for i, at := range idx {
		c.w.status = http.StatusOK
		t0 := time.Now()
		h.ServeHTTP(&c.w, c.pool[at].req)
		lat[i] = int32(min(time.Since(t0), math.MaxInt32))
		if c.w.status != http.StatusOK {
			failed++
		}
	}
	return failed
}

// classify copies the latencies of the requests for which keep is true
// into dst[:0], sorts them and returns them.
func (c *client) classify(dst []int32, idx, lat []int32, keep func(reqClass) bool) []int32 {
	dst = dst[:0]
	for i, at := range idx {
		if keep(c.pool[at].class) {
			dst = append(dst, lat[i])
		}
	}
	slices.Sort(dst)
	return dst
}

func isSearch(c reqClass) bool { return c == classSearch }
func isBrowse(c reqClass) bool { return c != classSearch }

// quantile returns the q-quantile of sorted (nearest rank), 0 if empty.
func quantile[T int32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// typical is the location estimate of a run's timing samples: the mean
// of those between the 10th and the 50th percentile. The box's noise is
// one-sided — a neighbour slows a round down, nothing speeds one up — so
// the quieter half of a run's rounds carries the signal, and the mean of
// a band has less sampling error than the single order statistic a
// median is. The fastest tenth is left out: those are the rounds in
// which the calibration kernel was what got slowed. README.md has the
// measurements against the plain median.
func typical(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	lo := len(s) / 10
	return mean(s[lo:max(len(s)/2, lo+1)])
}

func percentile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cv is the coefficient of variation (sample standard deviation / mean).
func cv(xs []float64) float64 {
	m := mean(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / m
}

func us(ns int32) float64 { return float64(ns) / 1e3 }
