package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// testDispatcher is the smallest dispatcher over Begin and Finish. It
// serves four routes, numbered as NewHTTPMetrics(reg, "/ok", "/bad",
// "/boom", "/item/{id}") numbers them, and answers an unknown path 404
// and a method other than GET 405 under route 0, UnmatchedRoute.
func testDispatcher(m *HTTPMetrics) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		route, status := 0, http.StatusNotFound
		start := m.Begin()
		defer func() { m.Finish(recover(), w, r, route, status, start) }()
		switch r.URL.Path {
		case "/ok":
			route, status = 1, http.StatusOK
		case "/bad":
			route, status = 2, http.StatusBadRequest
		case "/boom":
			route, status = 3, http.StatusInternalServerError
		case "/item/7":
			route, status = 4, http.StatusOK
		case "/item/8": // the route's own 404
			route, status = 4, http.StatusNotFound
		}
		if route != 0 && r.Method != http.MethodGet {
			route, status = 0, http.StatusMethodNotAllowed
		}
		w.WriteHeader(status)
	}
}

func TestHTTPMetricsCounting(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "/ok", "/bad", "/boom", "/item/{id}")
	srv := httptest.NewServer(testDispatcher(m))
	defer srv.Close()

	do := func(method, path string, want int) {
		t.Helper()
		req, _ := http.NewRequest(method, srv.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	for i := 0; i < 3; i++ {
		do("GET", "/ok", 200)
	}
	do("GET", "/bad", 400)
	do("GET", "/boom", 500)
	do("GET", "/missing", 404) // dispatcher-answered: unmatched
	do("POST", "/ok", 405)     // wrong method: unmatched
	do("GET", "/ok", 200)
	do("GET", "/item/7", 200)
	do("GET", "/item/8", 404) // its own 404, counted under its route

	sum := m.Summary()
	if sum.InFlight != 0 {
		t.Fatalf("in-flight = %d, want 0 at rest", sum.InFlight)
	}
	byRoute := map[string]RouteSummary{}
	for _, r := range sum.Routes {
		byRoute[r.Route] = r
	}
	if r := byRoute["/ok"]; r.Requests != 4 || r.ByClass["2xx"] != 4 {
		t.Fatalf("/ok summary wrong: %+v", r)
	}
	if r := byRoute["/bad"]; r.Requests != 1 || r.ByClass["4xx"] != 1 {
		t.Fatalf("/bad summary wrong: %+v", r)
	}
	if r := byRoute["/boom"]; r.Requests != 1 || r.ByClass["5xx"] != 1 {
		t.Fatalf("/boom summary wrong: %+v", r)
	}
	if r := byRoute["/item/{id}"]; r.Requests != 2 || r.ByClass["2xx"] != 1 || r.ByClass["4xx"] != 1 {
		t.Fatalf("/item/{id} summary wrong: %+v", r)
	}
	if r := byRoute[UnmatchedRoute]; r.Requests != 2 || r.ByClass["4xx"] != 2 {
		t.Fatalf("unmatched summary wrong: %+v", r)
	}
	if r := byRoute["/ok"]; r.P50Ms <= 0 || r.P99Ms < r.P50Ms {
		t.Fatalf("implausible latency quantiles: %+v", r)
	}

	// The same numbers must surface in the Prometheus text.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`shoal_http_requests_total{route="/ok"} 4`,
		`shoal_http_responses_total{route="/bad",class="4xx"} 1`,
		`shoal_http_responses_total{route="unmatched",class="4xx"} 2`,
		`shoal_http_request_duration_seconds_count{route="/ok"} 4`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

// nopWriter is the zero-overhead ResponseWriter for the alloc test.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopWriter) WriteHeader(int)             {}

// TestMiddlewareAllocFree locks the instrumentation's own per-request
// cost at zero allocations: a Begin and a deferred Finish, as a
// dispatcher calls them, are atomic updates only.
func TestMiddlewareAllocFree(t *testing.T) {
	m := NewHTTPMetrics(NewRegistry(), "/ping")
	req := httptest.NewRequest("GET", "/ping", nil)
	w := nopWriter{h: make(http.Header)}
	serve := func() {
		start := m.Begin()
		defer func() { m.Finish(recover(), w, req, 1, http.StatusOK, start) }()
	}
	if n := testing.AllocsPerRun(500, serve); n > 0 {
		t.Fatalf("instrumented request allocated %.1f times per run, want 0", n)
	}
	if r := m.Summary().Routes; len(r) != 1 || r[0].Route != "/ping" || r[0].ByClass["2xx"] != 501 {
		t.Fatalf("summary = %+v, want 501 2xx on /ping", r)
	}
}
