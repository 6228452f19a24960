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
// status-class counters — including mux-answered 404/405s, which no
// handler ever sees. The length bound on q is a branch too: its last
// admitted length is a case beside the first refused one.
func TestErrorPathsCounted(t *testing.T) {
	srv, h := newInstrumentedServer(t)

	cases := []struct {
		name   string
		method string
		path   string
		status int
		route  string // route label the response must be counted under
		class  string
	}{
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
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := classCount(h, tc.route, tc.class)
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
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
	for _, r := range h.metrics.Summary().Routes {
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
// the generation gauge must have settled on the final swap count.
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

	// One quiet request so the generation gauge observes the final swap
	// count; the scrape below is not included in its own output (requests
	// are observed after the response is written).
	if code := getJSON(t, srv.URL+"/api/search?q=beach+dress", nil); code != http.StatusOK {
		t.Fatalf("post-swap search status = %d", code)
	}
	want := served.Load() + 1

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	requests := map[string]int64{}
	histCounts := map[string]int64{}
	var total int64
	for _, line := range strings.Split(string(body), "\n") {
		var v int64
		switch {
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

	sum := h.metrics.Summary()
	if sum.Generation != h.Swaps() {
		t.Fatalf("generation gauge = %d, want final swap count %d", sum.Generation, h.Swaps())
	}
	if sum.InFlight != 0 {
		t.Fatalf("in-flight = %d at rest, want 0", sum.InFlight)
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
