package obs

import (
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"time"
)

// statusClasses are the response status classes counted per route.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// UnmatchedRoute is the label of route 0, under which the responses a
// dispatcher answers itself — 404s for unknown paths, 405s for wrong
// methods, 301s to a cleaned path — are counted: no route handler ran.
const UnmatchedRoute = "unmatched"

// routeMetrics is one route's instrument set, registered once so the
// per-request path never looks anything up.
type routeMetrics struct {
	route    string
	latency  *Histogram
	requests *Counter
	byClass  [len(statusClasses)]*Counter
}

// HTTPMetrics instruments a request dispatcher: per-route latency
// histograms, per-route status-class counters and an in-flight gauge.
// Routes are numbered: 0 is UnmatchedRoute, i is the i-th route given to
// NewHTTPMetrics. The dispatcher calls Begin when a request arrives and
// Finish, deferred, with the route it picked and the status it wrote;
// both are lock-free atomics and allocate nothing.
type HTTPMetrics struct {
	inFlight *Gauge
	panics   *Counter
	routes   []routeMetrics
}

// NewHTTPMetrics registers the serving instrument families in reg, with
// an instrument set for UnmatchedRoute and then for each route, in that
// order.
func NewHTTPMetrics(reg *Registry, routes ...string) *HTTPMetrics {
	m := &HTTPMetrics{
		inFlight: reg.Gauge("shoal_http_in_flight", "", "requests currently being served"),
		panics:   reg.Counter("shoal_http_panics_total", "", "handler panics recovered by the middleware"),
	}
	for _, route := range append([]string{UnmatchedRoute}, routes...) {
		labels := `route="` + route + `"`
		rm := routeMetrics{
			route: route,
			latency: reg.Histogram("shoal_http_request_duration_seconds", labels,
				"request latency by route", LatencyBuckets()),
			requests: reg.Counter("shoal_http_requests_total", labels, "requests served by route"),
		}
		for i, class := range statusClasses {
			rm.byClass[i] = reg.Counter("shoal_http_responses_total",
				labels+`,class="`+class+`"`, "responses by route and status class")
		}
		m.routes = append(m.routes, rm)
	}
	return m
}

// clockBase is the origin of the request clock. time.Since on a time
// that carries a monotonic reading reads the monotonic clock alone,
// where time.Now reads the wall clock as well: a third clock read per
// request, which the latency never used.
var clockBase = time.Now()

// Begin starts a request: it counts it in flight and returns its start,
// which the request's Finish takes.
func (m *HTTPMetrics) Begin() time.Duration {
	m.inFlight.Add(1)
	return time.Since(clockBase)
}

// Finish ends a request Begin started and observes it once, under route
// with the status its handler wrote. p is what the dispatcher's deferred
// call recovered. A handler panic is counted in shoal_http_panics_total
// and as a 5xx; the handler must have written nothing, so Finish answers
// 500 and logs the panic with its stack, as net/http would, and the
// panic stops here — except http.ErrAbortHandler, which Finish raises
// again for net/http to abort the connection.
func (m *HTTPMetrics) Finish(p any, w http.ResponseWriter, r *http.Request, route, status int, start time.Duration) {
	elapsed := time.Since(clockBase) - start
	m.inFlight.Add(-1)
	if p != nil {
		m.panics.Inc()
		if p != http.ErrAbortHandler {
			log.Printf("http: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}
		status = http.StatusInternalServerError
	}
	rm := &m.routes[route]
	rm.latency.Observe(elapsed.Seconds())
	rm.requests.Inc()
	if ci := status/100 - 2; ci >= 0 && ci < len(statusClasses) {
		rm.byClass[ci].Inc()
	}
	if p == http.ErrAbortHandler {
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
	out := HTTPSummary{InFlight: m.inFlight.Value()}
	for i := range m.routes {
		rm := &m.routes[i]
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
