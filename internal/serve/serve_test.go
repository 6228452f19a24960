package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shoal/internal/core"
	"shoal/internal/synth"
)

var (
	buildOnce sync.Once
	testBuild *core.Build
	buildErr  error
)

func getBuild(t testing.TB) *core.Build {
	t.Helper()
	buildOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Word2Vec.Epochs = 1
		cfg.Word2Vec.MinCount = 1
		cfg.Graph.MinSimilarity = 0.2
		cfg.HAC.StopThreshold = 0.12
		cfg.Taxonomy.Levels = []float64{0.12, 0.4}
		cfg.CatCorr.MinStrength = 0
		testBuild, buildErr = core.Run(synth.Curated(), cfg)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return testBuild
}

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	h, err := NewHandler(getBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestNewHandlerValidation(t *testing.T) {
	if _, err := NewHandler(nil); err == nil {
		t.Fatal("nil build accepted")
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv := newServer(t)
	var hits []TopicSummary
	code := getJSON(t, srv.URL+"/api/search?q=beach+dress&k=3", &hits)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(hits) == 0 {
		t.Fatal("no hits for beach dress")
	}
	if hits[0].Score <= 0 || hits[0].Items == 0 {
		t.Fatalf("bad hit payload: %+v", hits[0])
	}
}

func TestSearchValidation(t *testing.T) {
	srv := newServer(t)
	if code := getJSON(t, srv.URL+"/api/search", nil); code != http.StatusBadRequest {
		t.Fatalf("missing q: status = %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/api/search?q=x&k=0", nil); code != http.StatusBadRequest {
		t.Fatalf("k=0: status = %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/api/search?q=x&k=boom", nil); code != http.StatusBadRequest {
		t.Fatalf("k=boom: status = %d, want 400", code)
	}
}

func TestTopicEndpoint(t *testing.T) {
	srv := newServer(t)
	b := getBuild(t)
	root := b.Taxonomy.Roots()[0]
	var detail TopicDetail
	code := getJSON(t, fmt.Sprintf("%s/api/topics/%d", srv.URL, root), &detail)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if detail.ID != root {
		t.Fatalf("detail.ID = %d, want %d", detail.ID, root)
	}
	if len(detail.Categories) == 0 {
		t.Fatal("no category refs")
	}
	for _, sub := range detail.SubTopics {
		if sub.Level != detail.Level+1 {
			t.Fatalf("subtopic level %d under level %d", sub.Level, detail.Level)
		}
	}
}

// TestTopicNotFound also checks that an id beyond int32 gets the body
// of any other unknown topic: its own id, not one it wrapped onto.
func TestTopicNotFound(t *testing.T) {
	srv := newServer(t)
	n := len(getBuild(t).Taxonomy.Topics)
	for _, id := range []string{"9999", "4294967296", "-4294967296"} {
		var body map[string]string
		resp, err := http.Get(srv.URL + "/api/topics/" + id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		want := fmt.Sprintf("taxonomy: topic %s out of range [0,%d)", id, n)
		if err != nil || resp.StatusCode != http.StatusNotFound || body["error"] != want {
			t.Fatalf("topic %s: %d %v %v, want 404 %q", id, resp.StatusCode, body, err, want)
		}
	}
	if code := getJSON(t, srv.URL+"/api/topics/abc", nil); code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
}

func TestTopicItemsEndpoint(t *testing.T) {
	srv := newServer(t)
	b := getBuild(t)
	root := b.Taxonomy.Roots()[0]
	var all []ItemRef
	if code := getJSON(t, fmt.Sprintf("%s/api/topics/%d/items", srv.URL, root), &all); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(all) == 0 {
		t.Fatal("no items")
	}
	// Filter by the first category of the topic.
	cat := b.Taxonomy.Topics[root].Categories[0]
	var filtered []ItemRef
	if code := getJSON(t, fmt.Sprintf("%s/api/topics/%d/items?category=%d", srv.URL, root, cat), &filtered); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(filtered) == 0 || len(filtered) > len(all) {
		t.Fatalf("filtered = %d, all = %d", len(filtered), len(all))
	}
	for _, it := range filtered {
		if it.Category != cat {
			t.Fatalf("item %d leaked from category %d", it.ID, it.Category)
		}
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/topics/%d/items?category=999", srv.URL, root), nil); code != http.StatusBadRequest {
		t.Fatalf("bad category: status = %d, want 400", code)
	}
}

func TestRelatedEndpoint(t *testing.T) {
	srv := newServer(t)
	b := getBuild(t)
	// Find a category with correlations.
	pairs := b.Correlations.Pairs()
	if len(pairs) == 0 {
		t.Skip("no correlations in fixture")
	}
	var rel []RelatedCategory
	code := getJSON(t, fmt.Sprintf("%s/api/categories/%d/related", srv.URL, pairs[0].A), &rel)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(rel) == 0 {
		t.Fatal("no related categories")
	}
	if rel[0].Name == "" || rel[0].Strength <= 0 {
		t.Fatalf("bad payload: %+v", rel[0])
	}
	if code := getJSON(t, srv.URL+"/api/categories/9999/related", nil); code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newServer(t)
	var stats Stats
	if code := getJSON(t, srv.URL+"/api/stats", &stats); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if stats.Items <= 0 || stats.Topics <= 0 || stats.RootTopics <= 0 || stats.Entities <= 0 {
		t.Fatalf("non-positive counts in stats: %+v", stats)
	}
	if len(stats.Stages) == 0 {
		t.Fatal("stats has no stage timings")
	}
	seen := make(map[string]bool)
	for _, st := range stats.Stages {
		if st.Stage == "" {
			t.Fatalf("unnamed stage in %+v", stats.Stages)
		}
		if st.ElapsedMs < 0 || st.StartMs < 0 {
			t.Fatalf("negative timing: %+v", st)
		}
		seen[st.Stage] = true
	}
	for _, want := range []string{"entities", "entity-graph", "parallel-hac", "taxonomy"} {
		if !seen[want] {
			t.Fatalf("stage %q missing from stats (got %v)", want, stats.Stages)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	srv := newServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := srv.URL + "/api/search?q=beach+dress"
			if i%3 == 1 {
				url = srv.URL + "/api/stats"
			}
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d for %s", resp.StatusCode, url)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSwapValidation checks that a broken build cannot be published.
func TestSwapValidation(t *testing.T) {
	h, err := NewHandler(getBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Swap(nil); err == nil {
		t.Fatal("Swap(nil) accepted")
	}
	if err := h.Swap(&core.Build{}); err == nil {
		t.Fatal("Swap of taxonomy-less build accepted")
	}
	if h.Swaps() != 0 {
		t.Fatalf("rejected swaps counted: %d", h.Swaps())
	}
	if h.Current() != getBuild(t) {
		t.Fatal("rejected swaps replaced the served build")
	}
}

// TestSwapUnderLoad hammers the handler with parallel requests while
// builds are swapped in and out. Run under -race this is the zero-downtime
// guarantee: no request may observe an error or a torn snapshot.
func TestSwapUnderLoad(t *testing.T) {
	first := getBuild(t)
	// A second, structurally different build to alternate with.
	cfg := core.DefaultConfig()
	cfg.Word2Vec.Epochs = 1
	cfg.Word2Vec.MinCount = 1
	cfg.Graph.MinSimilarity = 0.2
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12}
	cfg.CatCorr.MinStrength = 0
	second, err := core.Run(synth.Curated(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(first)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	stop := make(chan struct{})
	errs := make(chan error, 32)
	var completed atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	paths := []string{
		"/api/search?q=beach+dress&k=3",
		"/api/stats",
		"/api/topics/0",
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				url := srv.URL + paths[(i+n)%len(paths)]
				resp, err := http.Get(url)
				if err != nil {
					failed.Store(true)
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Store(true)
					errs <- fmt.Errorf("status %d for %s", resp.StatusCode, url)
					return
				}
				completed.Add(1)
			}
		}(i)
	}
	// Keep swapping for as long as the readers are producing traffic, so
	// swaps genuinely interleave with in-flight requests instead of all
	// landing before the first response. A reader failure or the deadline
	// breaks the loop rather than hanging the package.
	builds := [2]*core.Build{first, second}
	deadline := time.Now().Add(30 * time.Second)
	for n := 0; completed.Load() < 400 && !failed.Load(); n++ {
		if time.Now().After(deadline) {
			t.Error("readers did not reach 400 requests before deadline")
			break
		}
		if err := h.Swap(builds[n%2]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if h.Swaps() == 0 {
		t.Fatal("no swaps performed")
	}
	if cur := h.Current(); cur != first && cur != second {
		t.Fatalf("Current() = %p, not one of the swapped builds", cur)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/api/search?q=x", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

// A build must say in /api/stats not only that the entity graph fell
// back to the full build but which gate decided it; the first rebuild of
// a pipeline has no retained state to patch.
func TestStatsDeltaFallbackReason(t *testing.T) {
	c := synth.Curated()
	cfg := core.DefaultConfig()
	cfg.TrainEmbeddings = false
	cfg.Graph.MinSimilarity = 0.2
	p, err := core.NewDailyPipeline(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IngestDay(c.Clicks); err != nil {
		t.Fatal(err)
	}
	b, err := p.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(b)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	var stats Stats
	if code := getJSON(t, srv.URL+"/api/stats", &stats); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if stats.Delta == nil || !stats.Delta.DenseFallback || stats.Delta.DenseFallbackReason != "no-state" {
		t.Fatalf("delta section = %+v, want a dense fallback with reason no-state", stats.Delta)
	}
}
