package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shoal/internal/core"
)

// uncachedSearch is /api/search's answer to a raw query string worked out
// without the handler: parameters by url.ParseQuery, the hits by the
// build's searcher and the body by encoding/json, the way the route
// answered before it had a result table.
func uncachedSearch(t testing.TB, b *core.Build, raw string) (int, []byte) {
	vals, _ := url.ParseQuery(raw)
	q, ks := vals.Get("q"), vals.Get("k")
	refuse := func(msg string) (int, []byte) {
		enc, err := json.Marshal(map[string]string{"error": msg})
		if err != nil {
			t.Fatal(err)
		}
		return http.StatusBadRequest, append(enc, '\n')
	}
	if q == "" {
		return refuse("missing query parameter q")
	}
	if len(q) > maxQueryBytes {
		return refuse("query parameter q is longer than " + strconv.Itoa(maxQueryBytes) + " bytes")
	}
	k := 5
	if ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 || v > 100 {
			return refuse("k must be an integer in [1,100]")
		}
		k = v
	}
	enc, err := json.Marshal(searchOf(b, q, k))
	if err != nil {
		t.Fatal(err)
	}
	return http.StatusOK, append(enc, '\n')
}

// searchRequest is a server-side request for /api/search with the raw
// query string raw, which need not be a valid URL.
func searchRequest(raw string) *http.Request {
	r := httptest.NewRequest("GET", "/api/search", nil)
	r.URL.RawQuery = raw
	r.RequestURI = "/api/search?" + raw
	return r
}

// FuzzSearchCache sends each raw query string twice to one long-lived
// handler, so its table fills with earlier inputs and slots collide: the
// first answer and the second — from the table when the first was
// stored — must both equal the uncached render, status and body.
func FuzzSearchCache(f *testing.F) {
	for _, seed := range []string{
		"q=beach+dress&k=5", "q=beach+dress", "k=5&q=beach+dress", "q=beach%20dress&k=3",
		"q=%zz&q=beach", "q=bea%2", "q=a;b&q=dress", "q=beach;k=2", "q=dress&q=beach&k=1&k=2",
		"q=" + strings.Repeat("x", maxQueryBytes), "q=" + strings.Repeat("x", maxQueryBytes+1),
		"q=beach&k=0", "q=beach&k=101", "q=beach&k=-1", "q=beach&k=1e2", "q=beach&k=100",
		"", "q=", "k=3", "q=zzzz", "q=the+for", "q=%E9%98%B2%E6%99%92", "q=\xff&k=1",
	} {
		f.Add(seed)
	}
	b := getBuild(f)
	h, err := NewHandler(b)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		status, want := uncachedSearch(t, b, raw)
		for i := range 2 {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, searchRequest(raw))
			if w.Code != status || !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("answer %d to %q: %d %s\nuncached: %d %s", i+1, raw, w.Code, w.Body.Bytes(), status, want)
			}
		}
	})
}

// TestSearchCacheMemoryBound fills every slot of a table with the largest
// answers it stores and holds the live heap's growth to the documented
// bound, slots × (maxEntryBytes + entryOverheadBytes). An answer one byte
// over the budget is served but not stored.
func TestSearchCacheMemoryBound(t *testing.T) {
	b := getBuild(t)
	h, err := NewHandler(b)
	if err != nil {
		t.Fatal(err)
	}
	snap := h.cur.Load()
	slots := len(snap.results)
	hits := len(b.Searcher.Search("beach dress", 5))
	if hits == 0 {
		t.Fatal("the test build has no hits for beach dress")
	}
	// target returns a request target of exactly n bytes, distinct per id.
	target := func(id, n int) string {
		s := fmt.Sprintf("/api/search?q=beach+dress&k=5&pad=%08d", id)
		return s + strings.Repeat("x", n-len(s))
	}
	largest := maxEntryBytes - hits*hitBytes

	oversized := target(0, largest+1)
	for range 2 {
		bypasses := h.searchResults[resultBypass].Value()
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", oversized, nil)
		h.ServeHTTP(w, r)
		status, want := uncachedSearch(t, b, r.URL.RawQuery)
		if w.Code != status || !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("oversized answer: %d %s, want %d %s", w.Code, w.Body.Bytes(), status, want)
		}
		if h.searchResults[resultBypass].Value() != bypasses+1 {
			t.Fatal("an oversized answer was not counted as a bypass")
		}
		if _, _, e := snap.lookup(r.URL.RawQuery); e != nil {
			t.Fatal("an oversized answer was stored")
		}
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	func() { // one largest storable answer for every slot
		filled := make([]bool, slots)
		w := &sink{h: make(http.Header)}
		for id, left := 1, slots; left > 0; id++ {
			tg := target(id, largest)
			i := maphash.String(snap.seed, tg[len("/api/search?"):]) & uint64(slots-1)
			if filled[i] {
				continue
			}
			filled[i] = true
			left--
			h.ServeHTTP(w, httptest.NewRequest("GET", tg, nil))
		}
	}()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	for i := range snap.results {
		if snap.results[i].entry.Load() == nil {
			t.Fatalf("slot %d is empty", i)
		}
	}
	if misses := h.searchResults[resultMiss].Value(); misses != uint64(slots) {
		t.Fatalf("stored %d answers, want one per slot (%d)", misses, slots)
	}
	growth := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	bound := int64(slots) * (maxEntryBytes + entryOverheadBytes)
	if growth > bound {
		t.Errorf("%d full slots grew the live heap by %d B, want <= %d", slots, growth, bound)
	}
	t.Logf("%d full slots: live heap +%d B (%.0f B a slot), bound %d B", slots, growth, float64(growth)/float64(slots), bound)
}

// TestSearchCacheCounters reads a miss, a hit and a bypass back from
// /api/stats and /metrics.
func TestSearchCacheCounters(t *testing.T) {
	srv, _ := newInstrumentedServer(t)
	for _, target := range []string{"/api/search?q=beach+dress", "/api/search?q=beach+dress", "/api/search?k=0"} {
		resp, err := http.Get(srv.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var stats Stats
	if code := getJSON(t, srv.URL+"/api/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if want := (SearchCacheStat{Slots: minSearchSlots, Hits: 1, Misses: 1, Bypasses: 1}); stats.SearchCache != want {
		t.Fatalf("searchCache = %+v, want %+v", stats.SearchCache, want)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE shoal_search_cache_total counter",
		`shoal_search_cache_total{result="hit"} 1`,
		`shoal_search_cache_total{result="miss"} 1`,
		`shoal_search_cache_total{result="bypass"} 1`,
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Fatalf("missing %q in metrics output:\n%s", want, body)
		}
	}
}

// TestSearchLookupChecksKey builds the state two racing stores can
// leave in a slot, one query's hash beside another query's entry, and
// holds a lookup of the first query to a miss.
func TestSearchLookupChecksKey(t *testing.T) {
	h, err := NewHandler(getBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	snap := h.cur.Load()
	slot, hash, _ := snap.lookup("q=beach")
	slot.store(hash, &searchEntry{key: "q=dress"})
	if _, _, e := snap.lookup("q=beach"); e != nil {
		t.Fatalf("q=beach found the entry of %q stored under its hash", e.key)
	}
	slot.store(hash, &searchEntry{key: "q=beach"})
	if _, _, e := snap.lookup("q=beach"); e == nil {
		t.Fatal("q=beach did not find its own entry")
	}
}

// TestSearchSlots pins the table's size rule: the smallest power of two
// at least twice the query count, clamped.
func TestSearchSlots(t *testing.T) {
	for _, c := range [][2]int{
		{0, minSearchSlots}, {512, 1 << 10}, {513, 1 << 11}, {980, 1 << 11},
		{4096, 1 << 13}, {4097, 1 << 14}, {1 << 20, maxSearchSlots},
	} {
		if got := searchSlots(c[0]); got != c[1] {
			t.Errorf("searchSlots(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// TestSearchCacheUnderSwap serves distinct and repeated searches from
// several goroutines while the test build and a copy without a searcher
// swap in and out (run with -race). An answer served with no swap around
// it must be its snapshot's uncached answer: a stored answer outliving
// its snapshot, or a torn entry, fails it.
func TestSearchCacheUnderSwap(t *testing.T) {
	first := getBuild(t)
	blind := *first
	blind.Searcher = nil // answers every valid search with []
	var raws []string
	var want [][]byte
	for i := range first.Corpus.Queries {
		for _, k := range []string{"1", "3"} {
			raw := "q=" + url.QueryEscape(first.Corpus.Queries[i].Text) + "&k=" + k
			if _, body := uncachedSearch(t, first, raw); string(body) != "[]\n" {
				raws, want = append(raws, raw), append(want, body)
			}
		}
	}
	if len(raws) == 0 {
		t.Fatal("no corpus query has a hit")
	}
	h, err := NewHandler(first)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := n % len(raws)
				w := httptest.NewRecorder()
				// Swaps publish in order, so an unchanged count on both
				// sides names the snapshot that answered: even counts
				// serve the test build, odd ones the blind copy.
				swaps := h.Swaps()
				h.ServeHTTP(w, searchRequest(raws[i]))
				if h.Swaps() != swaps {
					continue
				}
				expect := want[i]
				if swaps%2 == 1 {
					expect = []byte("[]\n")
				}
				if got := w.Body.Bytes(); !bytes.Equal(got, expect) {
					t.Errorf("after %d swaps, GET /api/search?%s answered %s, want %s", swaps, raws[i], got, expect)
					return
				}
			}
		}(g)
	}
	builds := [2]*core.Build{first, &blind}
	for n := 1; n <= 200; n++ {
		if err := h.Swap(builds[n%2]); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if sc := h.searchResults; sc[resultHit].Value() == 0 || sc[resultMiss].Value() == 0 {
		t.Fatalf("hits %d, misses %d: the table was not exercised", sc[resultHit].Value(), sc[resultMiss].Value())
	}
}
