package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestMux(m *HTTPMetrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", m.Route("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	mux.HandleFunc("GET /bad", m.Route("/bad", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	mux.HandleFunc("GET /boom", m.Route("/boom", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	return m.WrapMux(mux)
}

func TestHTTPMetricsCounting(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	gen := int64(0)
	m.Generation = func() int64 { return gen }
	h := newTestMux(m)
	srv := httptest.NewServer(h)
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
	do("GET", "/missing", 404) // mux-answered: unmatched
	do("POST", "/ok", 405)     // wrong method: unmatched
	gen = 7
	do("GET", "/ok", 200)

	sum := m.Summary()
	if sum.Generation != 7 {
		t.Fatalf("generation = %d, want 7", sum.Generation)
	}
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
		`shoal_build_generation 7`,
		`shoal_http_request_duration_seconds_count{route="/ok"} 4`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

// TestPanicRecoveredAndCounted drives a panicking route through a real
// server: the client gets a 500, the request is counted as one 5xx and
// one recovered panic, and the in-flight gauge comes back to 0.
// http.ErrAbortHandler is counted too and still aborts.
func TestPanicRecoveredAndCounted(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /panic", m.Route("/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	mux.HandleFunc("GET /abort", m.Route("/abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	h := m.WrapMux(mux)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/panic")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /panic = %d, want 500", resp.StatusCode)
	}
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Fatalf("GET /abort: recovered %v, want http.ErrAbortHandler re-panicked", p)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/abort", nil))
	}()

	sum := m.Summary()
	if sum.InFlight != 0 {
		t.Fatalf("in-flight = %d after the panics, want 0", sum.InFlight)
	}
	for _, r := range sum.Routes {
		if r.Requests != 1 || r.ByClass["5xx"] != 1 {
			t.Fatalf("%s summary = %+v, want one 5xx", r.Route, r)
		}
	}
	if len(sum.Routes) != 2 {
		t.Fatalf("routes = %+v, want /panic and /abort", sum.Routes)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "shoal_http_panics_total 2\n"; !strings.Contains(sb.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, sb.String())
	}
}

// nopWriter is the zero-overhead ResponseWriter for the alloc test.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopWriter) WriteHeader(int)             {}

// TestMiddlewareAllocFree locks the middleware's own per-request cost
// at zero allocations: pooled status writer, atomic updates only. The
// inner handler here does nothing, so anything measured is ours.
func TestMiddlewareAllocFree(t *testing.T) {
	m := NewHTTPMetrics(NewRegistry())
	m.Generation = func() int64 { return 3 }
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", m.Route("/ping", func(w http.ResponseWriter, r *http.Request) {}))
	h := m.WrapMux(mux)
	req := httptest.NewRequest("GET", "/ping", nil)
	w := nopWriter{h: make(http.Header)}
	h.ServeHTTP(w, req) // warm the pool
	if n := testing.AllocsPerRun(500, func() {
		h.ServeHTTP(w, req)
	}); n > 0 {
		t.Fatalf("instrumented request allocated %.1f times per run, want 0", n)
	}
}
