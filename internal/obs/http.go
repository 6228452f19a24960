package obs

import (
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// statusClasses are the response status classes counted per route.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// UnmatchedRoute is the synthetic route label under which responses the
// mux produced itself — 404s for unknown paths, 405s for wrong methods,
// 301s to a cleaned path — are counted. They never reach a registered
// route handler, so the outer middleware owns them.
const UnmatchedRoute = "unmatched"

// routeMetrics is one route's instrument set, resolved once at
// registration so the per-request path never looks anything up.
type routeMetrics struct {
	route    string
	latency  *Histogram
	requests *Counter
	byClass  [len(statusClasses)]*Counter
}

// HTTPMetrics instruments an HTTP mux: per-route latency histograms,
// per-route status-class counters and an in-flight gauge. The per-request
// path is allocation-free in steady state (the status-capturing writer
// is pooled) and every metric update is a lock-free atomic.
//
// Wiring is two layers: WrapMux goes around the whole mux and owns
// timing, in-flight accounting and observation; Route (or RouteArg)
// wraps each registered handler and only tags the request with its
// route's instrument set. Responses the mux answers itself (404/405/301)
// carry no tag and are observed under UnmatchedRoute — so error traffic
// is counted even when no handler ran.
type HTTPMetrics struct {
	reg      *Registry
	InFlight *Gauge
	panics   *Counter

	mu        sync.Mutex
	routes    []*routeMetrics
	unmatched *routeMetrics
	pool      sync.Pool
}

// NewHTTPMetrics registers the serving instrument families in reg.
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	m := &HTTPMetrics{
		reg:      reg,
		InFlight: reg.Gauge("shoal_http_in_flight", "", "requests currently being served"),
		panics:   reg.Counter("shoal_http_panics_total", "", "handler panics recovered by the middleware"),
	}
	m.pool.New = func() any { return &statusWriter{} }
	m.unmatched = m.routeMetrics(UnmatchedRoute)
	return m
}

// routeMetrics registers (or returns) the instrument set for a route.
func (m *HTTPMetrics) routeMetrics(route string) *routeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rm := range m.routes {
		if rm.route == route {
			return rm
		}
	}
	labels := `route="` + route + `"`
	rm := &routeMetrics{
		route: route,
		latency: m.reg.Histogram("shoal_http_request_duration_seconds", labels,
			"request latency by route", LatencyBuckets()),
		requests: m.reg.Counter("shoal_http_requests_total", labels, "requests served by route"),
	}
	for i, class := range statusClasses {
		rm.byClass[i] = m.reg.Counter("shoal_http_responses_total",
			labels+`,class="`+class+`"`, "responses by route and status class")
	}
	m.routes = append(m.routes, rm)
	return rm
}

// statusWriter captures the response status and carries the matched
// route's instrument set from the inner wrapper out to the observer.
type statusWriter struct {
	http.ResponseWriter
	status int
	rm     *routeMetrics
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Route wraps one registered handler: it tags the in-flight request
// with the route's pre-resolved instrument set and runs the handler.
// All timing and counting happens in WrapMux, so per-route latency
// includes mux dispatch and the tag is the only per-request work here.
func (m *HTTPMetrics) Route(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := m.routeMetrics(route)
	return func(w http.ResponseWriter, r *http.Request) {
		rm.tag(w)
		h(w, r)
	}
}

// RouteArg is Route for a handler that takes an argument its mux cut
// from the path, such as a route's {id} segment.
func (m *HTTPMetrics) RouteArg(route string, h func(http.ResponseWriter, *http.Request, string)) func(http.ResponseWriter, *http.Request, string) {
	rm := m.routeMetrics(route)
	return func(w http.ResponseWriter, r *http.Request, arg string) {
		rm.tag(w)
		h(w, r, arg)
	}
}

// tag marks the request w is answering as served by rm's route.
func (rm *routeMetrics) tag(w http.ResponseWriter) {
	if sw, ok := w.(*statusWriter); ok {
		sw.rm = rm
	}
}

// clockBase is the origin of the middleware's request clock. time.Since
// on a time that carries a monotonic reading reads the monotonic clock
// alone, where time.Now reads the wall clock as well: a third clock read
// per request, which the latency never used.
var clockBase = time.Now()

// WrapMux instruments the whole mux. Every response is observed exactly
// once: under its route when a Route-wrapped handler ran, under
// UnmatchedRoute when the mux answered itself. The bookkeeping is
// deferred, so a panicking handler is observed too (see finish).
func (m *HTTPMetrics) WrapMux(mux http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := m.pool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status, sw.rm = w, 0, nil

		m.InFlight.Add(1)
		start := time.Since(clockBase)
		defer m.finish(sw, r, start)
		mux.ServeHTTP(sw, r)
	})
}

// finish ends a request: in-flight accounting and observation. A handler
// panic is recovered here and counted in shoal_http_panics_total and as
// a 5xx. If nothing was written yet it answers 500 and the panic stops
// here (logged with its stack, as net/http would); otherwise the
// response cannot be repaired and the panic continues to net/http, which
// aborts the connection — as does http.ErrAbortHandler, always.
func (m *HTTPMetrics) finish(sw *statusWriter, r *http.Request, start time.Duration) {
	p := recover()
	elapsed := time.Since(clockBase) - start
	m.InFlight.Add(-1)

	rm := sw.rm
	if rm == nil {
		rm = m.unmatched
	}
	status := sw.status
	repanic := p == http.ErrAbortHandler || p != nil && status != 0
	if p != nil {
		m.panics.Inc()
		if !repanic {
			log.Printf("http: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
			http.Error(sw.ResponseWriter, "internal server error", http.StatusInternalServerError)
		}
		status = http.StatusInternalServerError
	}
	if status == 0 {
		status = http.StatusOK
	}
	rm.latency.Observe(elapsed.Seconds())
	rm.requests.Inc()
	if ci := status/100 - 2; ci >= 0 && ci < len(statusClasses) {
		rm.byClass[ci].Inc()
	}

	sw.ResponseWriter, sw.rm = nil, nil
	m.pool.Put(sw)
	if repanic {
		panic(p)
	}
}

// RouteSummary is one route's latency digest in the JSON stats payload.
type RouteSummary struct {
	Route    string  `json:"route"`
	Requests uint64  `json:"requests"`
	P50Ms    float64 `json:"p50Ms"`
	P90Ms    float64 `json:"p90Ms"`
	P99Ms    float64 `json:"p99Ms"`
	// ByClass counts responses per status class ("2xx".."5xx"); classes
	// with zero responses are omitted.
	ByClass map[string]uint64 `json:"byClass,omitempty"`
}

// HTTPSummary is the serving-telemetry section of /api/stats.
type HTTPSummary struct {
	InFlight int64          `json:"inFlight"`
	Routes   []RouteSummary `json:"routes"`
}

// Summary digests the current per-route state: request totals, status
// classes and interpolated latency quantiles, routes sorted by name.
// Routes that have served nothing are omitted.
func (m *HTTPMetrics) Summary() HTTPSummary {
	m.mu.Lock()
	routes := make([]*routeMetrics, len(m.routes))
	copy(routes, m.routes)
	m.mu.Unlock()

	out := HTTPSummary{InFlight: m.InFlight.Value()}
	for _, rm := range routes {
		snap := rm.latency.Snapshot()
		if snap.Count == 0 {
			continue
		}
		rs := RouteSummary{
			Route:    rm.route,
			Requests: rm.requests.Value(),
			P50Ms:    snap.Quantile(0.50) * 1e3,
			P90Ms:    snap.Quantile(0.90) * 1e3,
			P99Ms:    snap.Quantile(0.99) * 1e3,
		}
		for i, class := range statusClasses {
			if n := rm.byClass[i].Value(); n > 0 {
				if rs.ByClass == nil {
					rs.ByClass = make(map[string]uint64, len(statusClasses))
				}
				rs.ByClass[class] = n
			}
		}
		out.Routes = append(out.Routes, rs)
	}
	sort.Slice(out.Routes, func(i, j int) bool { return out.Routes[i].Route < out.Routes[j].Route })
	return out
}
