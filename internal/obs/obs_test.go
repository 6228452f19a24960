package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "", "test counter"); again != c {
		t.Fatal("re-registration did not return the same handle")
	}
	g := r.Gauge("g", "", "test gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	// Uniform bounds make interpolation exactly checkable.
	h := r.Histogram("h", "", "test", []float64{1, 2, 3, 4})
	for i := 0; i < 100; i++ {
		// 25 observations per unit bucket (0,1], (1,2], (2,3], (3,4].
		h.Observe(float64(i%4) + 0.5)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if want := 100 * 2.0; math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("sum = %f, want %f", s.Sum, want)
	}
	// Rank 50 falls exactly at the end of bucket (1,2].
	if got := s.Quantile(0.50); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("p50 = %f, want 2.0", got)
	}
	// Rank 90 is 15/25 of the way through bucket (3,4].
	if got := s.Quantile(0.90); math.Abs(got-3.6) > 1e-9 {
		t.Fatalf("p90 = %f, want 3.6", got)
	}
	if got := s.Quantile(1.0); math.Abs(got-4.0) > 1e-9 {
		t.Fatalf("p100 = %f, want 4.0", got)
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %f, want 0", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", "test", []float64{1, 2})
	h.Observe(100) // lands in +Inf
	s := h.Snapshot()
	if s.Counts[2] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", s.Counts[2])
	}
	// Quantile inside the +Inf bucket reports the highest finite bound.
	if got := s.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %f, want 2", got)
	}
}

// TestSteadyStateAllocFree locks the hot-path contract: metric updates
// allocate nothing. Counters, gauges and histogram observation are the
// operations every request and superstep pays for.
func TestSteadyStateAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "t")
	g := r.Gauge("g", "", "t")
	h := r.Histogram("h_seconds", "", "t", LatencyBuckets())
	// Warm once so lazily grown state (none expected) exists.
	c.Inc()
	g.Set(1)
	h.Observe(0.001)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(42)
		g.Add(-1)
		h.Observe(0.00025)
		h.Observe(1.5)
	}); n != 0 {
		t.Fatalf("metric updates allocated %.1f times per run, want 0", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", "t", ExpBuckets(1e-6, 2, 20))
	const (
		workers = 8
		each    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(i%100) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*each {
		t.Fatalf("count = %d, want %d", s.Count, workers*each)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	lb := LatencyBuckets()
	for i := 1; i < len(lb); i++ {
		if lb[i] <= lb[i-1] {
			t.Fatalf("LatencyBuckets not ascending at %d: %v", i, lb)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", "t")
	mustPanic(t, "type conflict", func() { r.Gauge("m", "", "t") })
	mustPanic(t, "empty bounds", func() { r.Histogram("h", "", "t", nil) })
	mustPanic(t, "unsorted bounds", func() { r.Histogram("h2", "", "t", []float64{2, 1}) })
	r.Histogram("h3", "", "t", []float64{1, 2})
	mustPanic(t, "layout conflict", func() { r.Histogram("h3", `x="y"`, "t", []float64{1}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

// TestPrometheusFormat hand-validates the exposition text: TYPE headers
// precede their series, histogram buckets are cumulative and end in a
// +Inf bucket equal to _count, and label sets render inside braces.
func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("shoal_reqs_total", `route="/api/search"`, "requests").Add(3)
	r.Gauge("shoal_inflight", "", "in flight").Set(2)
	h := r.Histogram("shoal_latency_seconds", `route="/api/search"`, "latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	typed := map[string]string{}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		order = append(order, line)
	}
	if typed["shoal_reqs_total"] != "counter" || typed["shoal_inflight"] != "gauge" ||
		typed["shoal_latency_seconds"] != "histogram" {
		t.Fatalf("TYPE lines wrong: %v", typed)
	}
	wantLines := []string{
		`shoal_reqs_total{route="/api/search"} 3`,
		`shoal_inflight 2`,
		`shoal_latency_seconds_bucket{route="/api/search",le="0.001"} 1`,
		`shoal_latency_seconds_bucket{route="/api/search",le="0.01"} 2`,
		`shoal_latency_seconds_bucket{route="/api/search",le="+Inf"} 3`,
		`shoal_latency_seconds_count{route="/api/search"} 3`,
	}
	for _, want := range wantLines {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("missing line %q in:\n%s", want, text)
		}
	}
	// Sum line present with the float value.
	if !strings.Contains(text, `shoal_latency_seconds_sum{route="/api/search"} 5.0055`) {
		t.Fatalf("missing _sum line in:\n%s", text)
	}
	_ = order
}
