package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shoal/internal/obs"
)

// newInstrumentedServer returns both the server and its handler so tests
// can inspect the metrics behind the HTTP surface.
func newInstrumentedServer(t *testing.T) (*httptest.Server, *Handler) {
	t.Helper()
	h, err := NewHandler(getBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h
}

// TestErrorPathsCounted drives every handler error branch and asserts
// both the status code and that the response landed in the right route's
// status-class counters — including the 404s, 405s and 301s the route
// table answers itself, which no handler ever sees, and a HEAD, which a
// GET route serves. The length bound on q is a branch too: its last
// admitted length is a case beside the first refused one. The client
// does not follow redirects, so a 301 is the response counted.
func TestErrorPathsCounted(t *testing.T) {
	srv, h := newInstrumentedServer(t)

	type errorCase struct {
		name   string
		method string
		path   string
		status int
		route  string // route label the response must be counted under
		class  string
	}
	cases := []errorCase{
		{"missing q", "GET", "/api/search", 400, "/api/search", "4xx"},
		{"k zero", "GET", "/api/search?q=x&k=0", 400, "/api/search", "4xx"},
		{"k too large", "GET", "/api/search?q=x&k=101", 400, "/api/search", "4xx"},
		{"k not a number", "GET", "/api/search?q=x&k=boom", 400, "/api/search", "4xx"},
		{"q over 1024 bytes", "GET", "/api/search?q=" + strings.Repeat("ab+", 341) + "ab", 400, "/api/search", "4xx"},
		{"q of 1024 bytes", "GET", "/api/search?q=" + strings.Repeat("ab+", 341) + "a", 200, "/api/search", "2xx"},
		{"topic id not a number", "GET", "/api/topics/boom", 400, "/api/topics/{id}", "4xx"},
		{"unknown topic", "GET", "/api/topics/99999", 404, "/api/topics/{id}", "4xx"},
		{"unknown filter category", "GET", "/api/topics/0/items?category=99999", 400, "/api/topics/{id}/items", "4xx"},
		{"unknown related category", "GET", "/api/categories/99999/related", 404, "/api/categories/{id}/related", "4xx"},
		{"wrong method", "POST", "/api/search?q=x", 405, "unmatched", "4xx"},
		{"unknown path", "GET", "/api/nope", 404, "unmatched", "4xx"},
		{"head", "HEAD", "/api/topics/0", 200, "/api/topics/{id}", "2xx"},
		{"unclean path", "GET", "/api//search?q=x", 301, "unmatched", "3xx"},
	}
	// Topic ids are parsed exactly: an id outside int32 does not wrap
	// onto a topic, and one outside int64 is not an integer. Both
	// architectures CI tests on answer alike.
	for _, suffix := range []string{"", "/items"} {
		route := "/api/topics/{id}" + suffix
		for _, id := range []struct {
			id     string
			status int
			class  string
		}{
			{"2147483648", 404, "4xx"}, {"4294967296", 404, "4xx"}, {"-4294967296", 404, "4xx"},
			{"99999999999999999999", 400, "4xx"}, {"+1", 200, "2xx"}, {"01", 200, "2xx"},
		} {
			cases = append(cases, errorCase{"topic " + id.id + suffix, "GET", "/api/topics/" + id.id + suffix, id.status, route, id.class})
		}
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := classCount(h, tc.route, tc.class)
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
			}
			if after := classCount(h, tc.route, tc.class); after != before+1 {
				t.Fatalf("route %q class %s count went %d -> %d, want +1", tc.route, tc.class, before, after)
			}
		})
	}
}

// classCount reads one route's status-class counter from the summary.
func classCount(h *Handler, route, class string) uint64 {
	for _, r := range h.routes.metrics.Summary().Routes {
		if r.Route == route {
			return r.ByClass[class]
		}
	}
	return 0
}

// TestMetricsEndpoint checks /metrics speaks the Prometheus text format
// and carries the request telemetry plus the route's own scrape.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newInstrumentedServer(t)
	if code := getJSON(t, srv.URL+"/api/search?q=beach+dress", nil); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	// First scrape makes the request counters visible; it is observed
	// only after its response is written, so a second scrape sees it.
	for range 2 {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type = %q", ct)
		}
		text := string(body)
		for _, want := range []string{
			"# TYPE shoal_http_request_duration_seconds histogram",
			"# TYPE shoal_http_requests_total counter",
			`shoal_http_requests_total{route="/api/search"} 1`,
			`shoal_http_request_duration_seconds_count{route="/api/search"} 1`,
			"shoal_http_in_flight 1", // the scrape itself is in flight
		} {
			if !strings.Contains(text, want+"\n") {
				t.Fatalf("missing %q in metrics output:\n%s", want, text)
			}
		}
	}
}

// TestPanicRecoveredAndCounted drives two panicking routes of the real
// route table: one through a server, whose client gets a 500, and one
// that panics with http.ErrAbortHandler, which the table must raise
// again for net/http to abort the connection. Each counts one 5xx under
// its own route, shoal_http_panics_total counts both, and the in-flight
// gauge comes back to 0.
func TestPanicRecoveredAndCounted(t *testing.T) {
	reg := obs.NewRegistry()
	rt := &router{metrics: obs.NewHTTPMetrics(reg, routeLabels[1:]...)}
	rt.handlers[routeSearch] = func(http.ResponseWriter, *http.Request, string) int { panic("handler bug") }
	rt.handlers[routeStats] = func(http.ResponseWriter, *http.Request, string) int { panic(http.ErrAbortHandler) }
	srv := httptest.NewServer(rt)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/search?q=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /api/search = %d, want 500", resp.StatusCode)
	}
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Fatalf("GET /api/stats: recovered %v, want http.ErrAbortHandler raised again", p)
			}
		}()
		rt.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/api/stats", nil))
	}()

	sum := rt.metrics.Summary()
	if sum.InFlight != 0 {
		t.Fatalf("in-flight = %d after the panics, want 0", sum.InFlight)
	}
	if len(sum.Routes) != 2 || sum.Routes[0].Route != "/api/search" || sum.Routes[1].Route != "/api/stats" {
		t.Fatalf("routes = %+v, want /api/search and /api/stats", sum.Routes)
	}
	for _, r := range sum.Routes {
		if r.Requests != 1 || r.ByClass["5xx"] != 1 || len(r.ByClass) != 1 {
			t.Fatalf("%s summary = %+v, want one 5xx", r.Route, r)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "shoal_http_panics_total 2\n"; !strings.Contains(sb.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, sb.String())
	}
}

// metricsSeries is /metrics after TestMetricsSeriesUnchanged's requests,
// without the _bucket and _sum lines: every family, label and series in
// the order the obs middleware this table replaced exposed them, with
// its counts.
const metricsSeries = `# HELP shoal_window_dropped_stale_events stale click events (already-evicted days) dropped at window ingestion, as of the published build
# TYPE shoal_window_dropped_stale_events gauge
shoal_window_dropped_stale_events 0
# HELP shoal_build_generation snapshot swap count of the published build
# TYPE shoal_build_generation gauge
shoal_build_generation 0
# HELP shoal_search_cache_total searches by how the snapshot's result table answered them
# TYPE shoal_search_cache_total counter
shoal_search_cache_total{result="hit"} 0
shoal_search_cache_total{result="miss"} 1
shoal_search_cache_total{result="bypass"} 0
# HELP shoal_http_in_flight requests currently being served
# TYPE shoal_http_in_flight gauge
shoal_http_in_flight 1
# HELP shoal_http_panics_total handler panics recovered by the middleware
# TYPE shoal_http_panics_total counter
shoal_http_panics_total 0
# HELP shoal_http_request_duration_seconds request latency by route
# TYPE shoal_http_request_duration_seconds histogram
shoal_http_request_duration_seconds_count{route="unmatched"} 3
shoal_http_request_duration_seconds_count{route="/api/search"} 1
shoal_http_request_duration_seconds_count{route="/api/topics/{id}"} 1
shoal_http_request_duration_seconds_count{route="/api/topics/{id}/items"} 1
shoal_http_request_duration_seconds_count{route="/api/categories/{id}/related"} 1
shoal_http_request_duration_seconds_count{route="/api/stats"} 1
shoal_http_request_duration_seconds_count{route="/api/trace"} 1
shoal_http_request_duration_seconds_count{route="/metrics"} 1
# HELP shoal_http_requests_total requests served by route
# TYPE shoal_http_requests_total counter
shoal_http_requests_total{route="unmatched"} 3
shoal_http_requests_total{route="/api/search"} 1
shoal_http_requests_total{route="/api/topics/{id}"} 1
shoal_http_requests_total{route="/api/topics/{id}/items"} 1
shoal_http_requests_total{route="/api/categories/{id}/related"} 1
shoal_http_requests_total{route="/api/stats"} 1
shoal_http_requests_total{route="/api/trace"} 1
shoal_http_requests_total{route="/metrics"} 1
# HELP shoal_http_responses_total responses by route and status class
# TYPE shoal_http_responses_total counter
shoal_http_responses_total{route="unmatched",class="2xx"} 0
shoal_http_responses_total{route="unmatched",class="3xx"} 1
shoal_http_responses_total{route="unmatched",class="4xx"} 2
shoal_http_responses_total{route="unmatched",class="5xx"} 0
shoal_http_responses_total{route="/api/search",class="2xx"} 1
shoal_http_responses_total{route="/api/search",class="3xx"} 0
shoal_http_responses_total{route="/api/search",class="4xx"} 0
shoal_http_responses_total{route="/api/search",class="5xx"} 0
shoal_http_responses_total{route="/api/topics/{id}",class="2xx"} 1
shoal_http_responses_total{route="/api/topics/{id}",class="3xx"} 0
shoal_http_responses_total{route="/api/topics/{id}",class="4xx"} 0
shoal_http_responses_total{route="/api/topics/{id}",class="5xx"} 0
shoal_http_responses_total{route="/api/topics/{id}/items",class="2xx"} 1
shoal_http_responses_total{route="/api/topics/{id}/items",class="3xx"} 0
shoal_http_responses_total{route="/api/topics/{id}/items",class="4xx"} 0
shoal_http_responses_total{route="/api/topics/{id}/items",class="5xx"} 0
shoal_http_responses_total{route="/api/categories/{id}/related",class="2xx"} 1
shoal_http_responses_total{route="/api/categories/{id}/related",class="3xx"} 0
shoal_http_responses_total{route="/api/categories/{id}/related",class="4xx"} 0
shoal_http_responses_total{route="/api/categories/{id}/related",class="5xx"} 0
shoal_http_responses_total{route="/api/stats",class="2xx"} 1
shoal_http_responses_total{route="/api/stats",class="3xx"} 0
shoal_http_responses_total{route="/api/stats",class="4xx"} 0
shoal_http_responses_total{route="/api/stats",class="5xx"} 0
shoal_http_responses_total{route="/api/trace",class="2xx"} 1
shoal_http_responses_total{route="/api/trace",class="3xx"} 0
shoal_http_responses_total{route="/api/trace",class="4xx"} 0
shoal_http_responses_total{route="/api/trace",class="5xx"} 0
shoal_http_responses_total{route="/metrics",class="2xx"} 1
shoal_http_responses_total{route="/metrics",class="3xx"} 0
shoal_http_responses_total{route="/metrics",class="4xx"} 0
shoal_http_responses_total{route="/metrics",class="5xx"} 0`

// TestMetricsSeriesUnchanged drives every route, a 404, a 405 and a 301,
// then scrapes once, and holds the Content-Type and every line but the
// _bucket and _sum lines, whose values are latencies, to metricsSeries.
func TestMetricsSeriesUnchanged(t *testing.T) {
	b := getBuild(t)
	h, err := NewHandler(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range []struct{ method, target string }{
		{"GET", "/api/search?q=beach+dress"},
		{"GET", "/api/topics/0"},
		{"GET", "/api/topics/0/items"},
		{"GET", fmt.Sprintf("/api/categories/%d/related", b.Correlations.Pairs()[0].A)},
		{"GET", "/api/stats"},
		{"GET", "/api/trace"},
		{"GET", "/metrics"},
		{"GET", "/api/nope"},
		{"POST", "/api/stats"},
		{"GET", "/api//stats"},
	} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(rq.method, rq.target, nil))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if ct, want := w.Header().Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; ct != want {
		t.Fatalf("Content-Type = %q, want %q", ct, want)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n") {
		if !strings.Contains(line, "_bucket{") && !strings.Contains(line, "_sum{") {
			got = append(got, line)
		}
	}
	want := strings.Split(metricsSeries, "\n")
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("line %d differs (%d lines, want %d):\n%s", i, len(got), len(want), strings.Join(got, "\n"))
		}
	}
}

// TestTraceEndpoint checks /api/trace serves the current build's trace
// as parseable Chrome trace-event JSON covering the pipeline stages.
func TestTraceEndpoint(t *testing.T) {
	srv, _ := newInstrumentedServer(t)
	resp, err := http.Get(srv.URL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d: %s", resp.StatusCode, body)
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range f.TraceEvents {
		names[ev.Name] = true
	}
	for _, st := range getBuild(t).StageTimings {
		if !names[st.Stage] {
			t.Fatalf("trace missing stage span %q", st.Stage)
		}
	}
}

// TestStatsHTTPSection checks the serving telemetry lands in /api/stats:
// per-route latency digests.
func TestStatsHTTPSection(t *testing.T) {
	srv, _ := newInstrumentedServer(t)
	for i := 0; i < 3; i++ {
		if code := getJSON(t, srv.URL+"/api/search?q=beach+dress", nil); code != http.StatusOK {
			t.Fatalf("search status = %d", code)
		}
	}
	var stats Stats
	if code := getJSON(t, srv.URL+"/api/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	var search *obs.RouteSummary
	for i := range stats.HTTP.Routes {
		if stats.HTTP.Routes[i].Route == "/api/search" {
			search = &stats.HTTP.Routes[i]
		}
	}
	if search == nil {
		t.Fatalf("no /api/search digest in %+v", stats.HTTP.Routes)
	}
	if search.Requests != 3 || search.ByClass["2xx"] != 3 {
		t.Fatalf("search digest wrong: %+v", search)
	}
	if search.P50Ms <= 0 || search.P99Ms < search.P50Ms {
		t.Fatalf("implausible latency quantiles: %+v", search)
	}
}

// TestMetricsUnderSwap hammers the instrumented handler from several
// goroutines while builds are repeatedly hot-swapped (run with -race).
// Afterwards every request must be accounted exactly once — histogram
// totals equal request counters equal requests actually served — and
// the generation gauge must read the final swap count.
func TestMetricsUnderSwap(t *testing.T) {
	srv, h := newInstrumentedServer(t)
	b := getBuild(t)

	const workers = 4
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	urls := []string{
		srv.URL + "/api/search?q=beach+dress",
		srv.URL + "/metrics",
		srv.URL + "/api/stats",
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(urls[(w+i)%len(urls)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				served.Add(1)
			}
		}(w)
	}
	for s := 0; s < 50; s++ {
		if err := h.Swap(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The scrape below is not included in its own output (requests are
	// observed after the response is written).
	want := served.Load()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	requests := map[string]int64{}
	histCounts := map[string]int64{}
	var total int64
	generation := int64(-1)
	for _, line := range strings.Split(string(body), "\n") {
		var v int64
		switch {
		case strings.HasPrefix(line, "shoal_build_generation "):
			if _, err := fmt.Sscanf(line, "shoal_build_generation %d", &generation); err != nil {
				t.Fatalf("unparseable line %q", line)
			}
		case strings.HasPrefix(line, "shoal_http_requests_total{"):
			if _, err := fmt.Sscanf(afterBrace(line), "%d", &v); err != nil {
				t.Fatalf("unparseable line %q", line)
			}
			requests[routeLabel(line)] = v
			total += v
		case strings.HasPrefix(line, "shoal_http_request_duration_seconds_count{"):
			if _, err := fmt.Sscanf(afterBrace(line), "%d", &v); err != nil {
				t.Fatalf("unparseable line %q", line)
			}
			histCounts[routeLabel(line)] = v
		}
	}
	if total != want {
		t.Fatalf("counted %d requests across routes, served %d", total, want)
	}
	for route, n := range requests {
		if histCounts[route] != n {
			t.Fatalf("route %q: histogram count %d != request counter %d", route, histCounts[route], n)
		}
	}

	if generation != h.Swaps() {
		t.Fatalf("generation gauge = %d, want final swap count %d", generation, h.Swaps())
	}
	sum := h.routes.metrics.Summary()
	if sum.InFlight != 0 {
		t.Fatalf("in-flight = %d at rest, want 0", sum.InFlight)
	}
}

// TestGenerationSetAtPublish reads the generation gauge straight after
// NewHandler and each Swap, with no request in between: a build's swap
// count is exported when the build is published, not when a request
// next completes.
func TestGenerationSetAtPublish(t *testing.T) {
	b := getBuild(t)
	h, err := NewHandler(b)
	if err != nil {
		t.Fatal(err)
	}
	for swaps := 0; swaps <= 3; swaps++ {
		if swaps > 0 {
			if err := h.Swap(b); err != nil {
				t.Fatal(err)
			}
		}
		var sb strings.Builder
		if err := h.Registry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("shoal_build_generation %d\n", swaps); !strings.Contains(sb.String(), want) {
			t.Fatalf("after %d swaps, /metrics lacks %q:\n%s", swaps, want, sb.String())
		}
	}
}

// routeLabel extracts the route="..." label value from a sample line.
func routeLabel(line string) string {
	_, rest, ok := strings.Cut(line, `route="`)
	if !ok {
		return ""
	}
	route, _, _ := strings.Cut(rest, `"`)
	return route
}

// afterBrace returns the sample value text following the label set.
func afterBrace(line string) string {
	_, rest, _ := strings.Cut(line, "} ")
	return rest
}
