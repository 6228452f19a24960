// Package obs is the observability subsystem: an allocation-free metrics
// registry (counters, gauges, fixed-bucket latency histograms), HTTP
// serving instrumentation, a runtime sampler, and a hierarchical span
// recorder for build traces. It has no dependencies outside the standard
// library and no dependencies on the rest of the repo, so every layer —
// serving, pipeline, clustering — can report into it.
//
// Three pillars:
//
//   - Metrics core: Registry owns named Counter/Gauge/Histogram series.
//     Updates on hot paths (Counter.Inc, Gauge.Set, Histogram.Observe)
//     are lock-free atomics and allocate nothing (locked by
//     TestSteadyStateAllocFree); registration and snapshotting are the
//     slow paths and may allocate. Histograms use fixed log-spaced
//     bounds, and their snapshots interpolate p50/p90/p99.
//
//   - Serving instrumentation: HTTPMetrics is a fixed table of per-route
//     latency histograms and status-class counters, numbered like the
//     dispatcher's routes, plus an in-flight gauge. The dispatcher calls
//     Begin and a deferred Finish with the route it picked and the
//     status it wrote; Finish also recovers handler panics. Exposed as
//     Prometheus text format (WritePrometheus) and as a JSON summary
//     (Summary). RuntimeSampler feeds heap / GC-pause / goroutine
//     gauges. PprofMux bundles the net/http/pprof handlers for a side
//     listener.
//
//   - Build tracing: Trace records a tree of Spans (one per pipeline
//     stage, per clustering merge round) and exports Chrome trace-event
//     JSON loadable in chrome://tracing / Perfetto.
//     Span methods are nil-safe, so instrumented code pays nothing when
//     no trace is installed.
package obs

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are
// lock-free and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer-valued metric that can go up and down. All
// methods are lock-free and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed upper-bound buckets (the
// last bucket is implicit +Inf). Observe is lock-free and
// allocation-free; concurrent observers never block each other.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v: log-spaced bounds keep
	// this a handful of compares, with no allocation.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sum.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Snapshot copies the histogram's current state. The copy is not
// atomic across buckets — observations racing the copy may be split —
// but every completed Observe before the call is included.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds, // immutable after registration; shared
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram, queryable for
// quantiles.
type HistSnapshot struct {
	Bounds []float64 // upper bounds; Counts has one extra +Inf bucket
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Quantile returns the q-th quantile (q in [0,1]) by locating the
// bucket holding the target rank and interpolating linearly inside it —
// exact to within one bucket's resolution, which the log-spaced bounds
// keep proportional to the value. Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(s.Count))
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		if i == len(s.Bounds) {
			// +Inf bucket: no upper bound to interpolate toward; the
			// highest finite bound is the best defensible answer.
			return s.Bounds[len(s.Bounds)-1]
		}
		upper := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lower + float64((upper-lower)*frac)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ExpBuckets returns n log-spaced upper bounds starting at start and
// growing by factor — the standard latency-histogram layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default request-latency layout: 28 log-spaced
// bounds from 50µs to ~28s (factor 1.6), in seconds. Sub-millisecond
// cache hits and multi-second rebuild stalls land in distinct buckets.
func LatencyBuckets() []float64 { return ExpBuckets(50e-6, 1.6, 28) }

// Registry owns named metric series. Registration is locked and may
// allocate; the returned metric handles are updated lock-free. Series
// are identified by (name, labels): registering the same pair twice
// returns the same handle, so idempotent wiring is safe.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byKey    map[string]any // "name\xfflabels" -> *Counter/*Gauge/*Histogram
}

// family groups series sharing a metric name, emitted under one # TYPE
// header in registration order.
type family struct {
	name   string
	typ    string // "counter" | "gauge" | "histogram"
	help   string
	series []*series
}

type series struct {
	labels string // `k="v",k2="v2"` form, no braces; may be empty
	metric any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]any)}
}

func (r *Registry) register(name, labels, typ, help string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "\xff" + labels
	if m, ok := r.byKey[key]; ok {
		return m
	}
	var fam *family
	for _, f := range r.families {
		if f.name == name {
			if f.typ != typ {
				panic("obs: metric " + name + " registered as both " + f.typ + " and " + typ)
			}
			fam = f
			break
		}
	}
	if fam == nil {
		fam = &family{name: name, typ: typ, help: help}
		r.families = append(r.families, fam)
	}
	m := mk()
	// All series of one histogram family must share a bucket layout, or
	// the summed _bucket lines would lie. Checked against the family's
	// first series.
	if h, ok := m.(*Histogram); ok && len(fam.series) > 0 {
		first := fam.series[0].metric.(*Histogram)
		if !slices.Equal(first.bounds, h.bounds) {
			panic("obs: histogram " + name + " registered with a different bucket layout")
		}
	}
	fam.series = append(fam.series, &series{labels: labels, metric: m})
	r.byKey[key] = m
	return m
}

// Counter registers (or returns the existing) counter series. labels is
// the label set in `k="v",k2="v2"` form, or empty.
func (r *Registry) Counter(name, labels, help string) *Counter {
	return r.register(name, labels, "counter", help, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	return r.register(name, labels, "gauge", help, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or returns the existing) histogram series with
// the given upper bounds (ascending; +Inf is implicit). Series of one
// family must share a layout.
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram " + name + " bounds must ascend")
	}
	return r.register(name, labels, "histogram", help, func() any {
		return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}).(*Histogram)
}
