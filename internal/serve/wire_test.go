package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"testing"

	"shoal/internal/bm25"
	"shoal/internal/core"
	"shoal/internal/model"
	"shoal/internal/taxonomy"
)

// The wire structs are the oracle: what the handlers wrote through
// encoding/json before the append encoders, built the same way.

func summaryOf(t *taxonomy.Topic, score float64) TopicSummary {
	return TopicSummary{
		ID: t.ID, Description: t.Description, Level: t.Level,
		Items: len(t.Items), Categories: len(t.Categories), Score: score,
	}
}

func detailOf(b *core.Build, t *taxonomy.Topic) TopicDetail {
	d := TopicDetail{TopicSummary: summaryOf(t, 0), Queries: t.DescQueries}
	for _, c := range t.Children {
		d.SubTopics = append(d.SubTopics, summaryOf(&b.Taxonomy.Topics[c], 0))
	}
	for _, cat := range t.Categories {
		d.Categories = append(d.Categories, CategoryRef{ID: cat, Name: b.Corpus.Categories[cat].Name})
	}
	return d
}

// itemsOf lists the topic's items, all of them for cat < 0.
func itemsOf(b *core.Build, t *taxonomy.Topic, cat int) []ItemRef {
	out := []ItemRef{}
	for _, it := range t.Items {
		item := &b.Corpus.Items[it]
		if cat < 0 || int(item.Category) == cat {
			out = append(out, ItemRef{ID: it, Title: item.Title, Category: item.Category})
		}
	}
	return out
}

func relatedOf(b *core.Build, id model.CategoryID) []RelatedCategory {
	out := []RelatedCategory{}
	for _, c := range b.Correlations.Related(id) {
		other := c.A
		if other == id {
			other = c.B
		}
		out = append(out, RelatedCategory{
			CategoryRef: CategoryRef{ID: other, Name: b.Corpus.Categories[other].Name},
			Strength:    c.Strength,
		})
	}
	return out
}

func searchOf(b *core.Build, q string, k int) []TopicSummary {
	out := []TopicSummary{}
	for _, h := range b.Searcher.Search(q, k) {
		out = append(out, summaryOf(&b.Taxonomy.Topics[h.Topic], h.Score))
	}
	return out
}

// twistedBuild is the test build with the cases the curated corpus does
// not reach: nil against empty description queries, sub-topics and
// category refs, and strings that need every kind of escape.
func twistedBuild(t *testing.T) *core.Build {
	b := *getBuild(t)
	tx := *b.Taxonomy
	tx.Topics = slices.Clone(tx.Topics)
	b.Taxonomy = &tx
	nasty := []string{"<b>&amp;\"q\"\\/", "\x00\x01\b\f\n\r\t\x1f\x7f", "\u2028\u2029 é 防晒", "bad \xff\xfe utf8 \xe2\x82"}
	tx.Topics[0].DescQueries = nil
	tx.Topics[0].Children = []model.TopicID{model.TopicID(len(tx.Topics) - 1), 0}
	tx.Topics[0].Description = nasty[0] + nasty[3]
	tx.Topics[1%len(tx.Topics)].DescQueries = []string{}
	tx.Topics[1%len(tx.Topics)].Children = []model.TopicID{}
	tx.Topics[1%len(tx.Topics)].Categories = []model.CategoryID{}
	tx.Topics[2%len(tx.Topics)].DescQueries = nasty
	tx.Topics[2%len(tx.Topics)].Description = nasty[1] + nasty[2]
	c := &model.Corpus{Items: slices.Clone(b.Corpus.Items), Categories: slices.Clone(b.Corpus.Categories)}
	for i := range c.Categories {
		c.Categories[i].Name += nasty[i%len(nasty)]
	}
	for i := range c.Items {
		c.Items[i].Title = nasty[i%len(nasty)] + c.Items[i].Title
	}
	b.Corpus = c
	return &b
}

// TestWireMatchesEncodingJSON holds the append encoders to encoding/json
// byte for byte: every route the encoders write, for every topic and
// category of the test build and of its twisted copy, answers
// json.Marshal of the wire struct plus the Encoder's newline — on a
// handler made on the build, and on one made on the other build and
// swapped to it, so a summary head left over from the first build fails.
// Every search is sent twice, so the second answer comes from the result
// table; every refused search is sent twice too, answers 400 both times
// and is never stored. (The two builds share a searcher, so a stored
// answer outliving its snapshot is TestSearchCacheUnderSwap's to catch.)
func TestWireMatchesEncodingJSON(t *testing.T) {
	shapes := map[string]bool{} // detail shapes checked, to prove coverage
	test, twisted := getBuild(t), twistedBuild(t)
	for _, c := range []struct {
		name     string
		first, b *core.Build
	}{
		{"test", test, test},
		{"twisted", twisted, twisted},
		{"test swapped to twisted", test, twisted},
		{"twisted swapped to test", twisted, test},
	} {
		name, b := c.name, c.b
		h, err := NewHandler(c.first)
		if err != nil {
			t.Fatal(err)
		}
		if c.first != b {
			if err := h.Swap(b); err != nil {
				t.Fatal(err)
			}
		}
		check := func(target string, want any) {
			t.Helper()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("%s GET %s = %d: %s", name, target, w.Code, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s GET %s: content type %q", name, target, ct)
			}
			enc, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if enc = append(enc, '\n'); !bytes.Equal(w.Body.Bytes(), enc) {
				t.Fatalf("%s GET %s:\n got %s\nwant %s", name, target, w.Body.Bytes(), enc)
			}
		}
		for i := range b.Taxonomy.Topics {
			tp := &b.Taxonomy.Topics[i]
			d := detailOf(b, tp)
			check(fmt.Sprintf("/api/topics/%d", i), d)
			shapes[fmt.Sprintf("queries nil=%t len=%d", d.Queries == nil, min(len(d.Queries), 1))] = true
			shapes[fmt.Sprintf("subTopics nil=%t", d.SubTopics == nil)] = true
			shapes[fmt.Sprintf("categoryRefs nil=%t", d.Categories == nil)] = true
			check(fmt.Sprintf("/api/topics/%d/items", i), itemsOf(b, tp, -1))
			for cat := range b.Corpus.Categories { // in the topic or not
				check(fmt.Sprintf("/api/topics/%d/items?category=%d", i, cat), itemsOf(b, tp, cat))
			}
		}
		for cat := range b.Corpus.Categories {
			check(fmt.Sprintf("/api/categories/%d/related", cat), relatedOf(b, model.CategoryID(cat)))
		}
		queries := []string{"zzzz", "beach dress", "for the"}
		for i := range b.Corpus.Queries {
			queries = append(queries, b.Corpus.Queries[i].Text)
		}
		for _, q := range queries {
			for _, k := range []int{1, 5, 100} {
				target, want := fmt.Sprintf("/api/search?q=%s&k=%d", url.QueryEscape(q), k), searchOf(b, q, k)
				check(target, want) // searched (or, for a repeated query text, a hit)
				// The second answer comes from the table when the first
				// fits an entry, and is searched again when it does not.
				outcome, label := resultBypass, "a bypass"
				if storable(httptest.NewRequest("GET", target, nil), len(b.Searcher.Search(q, k))) {
					outcome, label = resultHit, "a table hit"
				}
				before := h.searchResults[outcome].Value()
				check(target, want)
				if h.searchResults[outcome].Value() != before+1 {
					t.Fatalf("%s GET %s twice: the second answer was not %s", name, target, label)
				}
			}
		}
		for _, target := range []string{
			"/api/search", "/api/search?q=x&k=0", "/api/search?q=" + strings.Repeat("x", maxQueryBytes+1),
		} {
			for range 2 {
				bypasses := h.searchResults[resultBypass].Value()
				w := httptest.NewRecorder()
				r := httptest.NewRequest("GET", target, nil)
				h.ServeHTTP(w, r)
				if status, want := uncachedSearch(t, b, r.URL.RawQuery); status != http.StatusBadRequest || w.Code != status || !bytes.Equal(w.Body.Bytes(), want) {
					t.Fatalf("%s GET %s = %d %s, want 400 %s", name, target, w.Code, w.Body, want)
				}
				if _, _, e := h.cur.Load().lookup(r.URL.RawQuery); e != nil {
					t.Fatalf("%s GET %s: a refused search was stored", name, target)
				}
				if h.searchResults[resultBypass].Value() != bypasses+1 {
					t.Fatalf("%s GET %s: not counted as a bypass", name, target)
				}
			}
		}
	}
	for _, want := range []string{
		"queries nil=true len=0", "queries nil=false len=0", "queries nil=false len=1",
		"subTopics nil=true", "subTopics nil=false", "categoryRefs nil=true", "categoryRefs nil=false",
	} {
		if !shapes[want] {
			t.Errorf("no topic detail with %s was checked", want)
		}
	}
}

// jsonStringSeeds are the strings encoding/json escapes in every way it
// has: HTML characters, quote and backslash, each control byte, invalid
// UTF-8 and the two JavaScript line terminators.
func jsonStringSeeds() []string {
	seeds := []string{"", "plain", "<>&", `"\`, "\u2028\u2029", "\xff", "a\xe2\x82", "é防\U0001F600", "\x7f"}
	for b := 0; b < 0x20; b++ {
		seeds = append(seeds, string(rune(b)), "x"+string(rune(b))+"y")
	}
	return seeds
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("prefix"), s); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	})
}

// appendJSONFloat appends a finite f the way a stored hit writes its
// score: through its record.
func appendJSONFloat(dst []byte, f float64) []byte {
	r := newHitRecord(taxonomy.Hit{Score: f})
	return r.appendScore(dst)
}

// scoreSeeds are encoding/json's float format on both sides of each of
// its 'e' boundaries, and the extremes of float64.
func scoreSeeds() []float64 {
	return []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 3.14159, 12.345678901234567, 1e-7, 5e-7, 1e-6,
		math.Nextafter(1e-6, 0), 9.999999999999999e-7, 1e20, 1e21, math.Nextafter(1e21, 0),
		9.999999999999999e20, 1.5e-9, 1e-10, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, 2.225073858507201e-308,
		123456789012345678, 1e100, -2.5e-8, 0.1 + 0.2, 1.2345678901234567e-5,
		0.30000000000000004, 1234567890123456.7, 1e16, 100, 120.5, -7e-7,
	}
}

// TestAppendJSONFloat renders each of scoreSeeds through its record
// and holds it to json.Marshal.
func TestAppendJSONFloat(t *testing.T) {
	for _, f := range scoreSeeds() {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// FuzzScoreDecimal holds a record's render of any finite float64 to
// json.Marshal. BM25 scores never take the 'e' form, so this is the
// only caller that reaches it.
func FuzzScoreDecimal(f *testing.F) {
	for _, s := range scoreSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, score float64) {
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return
		}
		want, err := json.Marshal(score)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat([]byte("prefix"), score); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("render of %v (%#x) = %s, want %s", score, math.Float64bits(score), got[len("prefix"):], want)
		}
	})
}

func FuzzQueryParam(f *testing.F) {
	for _, seed := range [][2]string{
		{"q=beach+dress&k=5", "q"}, {"q=a;b&q=c", "q"}, {"a=1;q=2&q=3", "q"},
		{"%71=x", "q"}, {"q=%zz&q=ok", "q"}, {"%zz=1&k=2", "k"}, {"q=1&q=2", "q"},
		{"q=", "q"}, {"q", "q"}, {"q=+", "q"}, {"+=x", " "}, {"&&q=x&", "q"},
		{"k=5&q=a%20b", "k"}, {"category=3", "category"}, {"q=%", "q"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		parsed, _ := url.ParseQuery(raw)
		// Alone, and beside the search route's keys (a repeat included).
		keys := []string{key, "q", "k", key}
		vals := make([]string, len(keys))
		queryParams(raw, keys, vals)
		for i, k := range keys {
			if want := parsed.Get(k); vals[i] != want {
				t.Fatalf("queryParams(%q)[%q] = %q, url.ParseQuery.Get = %q", raw, k, vals[i], want)
			}
		}
		one := []string{""}
		if queryParams(raw, []string{key}, one); one[0] != parsed.Get(key) {
			t.Fatalf("queryParams(%q, %q) = %q, url.ParseQuery.Get = %q", raw, key, one[0], parsed.Get(key))
		}
	})
}

// sink is a reused ResponseWriter that drops the body.
type sink struct {
	h      http.Header
	status int
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(p []byte) (int, error) { return len(p), nil }
func (s *sink) WriteHeader(code int)        { s.status = code }

// TestServeAllocs counts allocations per request through the full
// instrumented handler with a reused writer and prebuilt requests. The
// route table allocates nothing, so a topic route, with or without a
// category filter, and the related route (a span catcorr.Mine laid out
// in order) allocate nothing at all. A repeated search is answered from the result table and allocates
// nothing. A search the snapshot has not answered allocates at most its
// unescaped q, its records at their exact size and its table entry; one
// whose answer is too large to store (a bypass) at most its q, since its
// hits and records stay in pooled scratch.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool caching is disabled under the race detector")
	}
	b := getBuild(t)
	h, err := NewHandler(b)
	if err != nil {
		t.Fatal(err)
	}
	root := b.Taxonomy.Roots()[0]
	rootCat := b.Corpus.Items[b.Taxonomy.Topics[root].Items[0]].Category
	pairs := b.Correlations.Pairs()
	if len(pairs) == 0 {
		t.Fatal("test build has no correlations")
	}
	// A distinct raw query string per request, each longer than an
	// entry can hold.
	var bypass []*http.Request
	for i := range 201 {
		target := fmt.Sprintf("/api/search?q=beach+dress&k=5&pad=%03d", i)
		bypass = append(bypass, httptest.NewRequest("GET", target+strings.Repeat("x", maxEntryBytes+1-len(target)), nil))
	}
	for _, tc := range []struct {
		name string
		reqs []*http.Request
		max  float64
	}{
		{"a repeated search", []*http.Request{httptest.NewRequest("GET", "/api/search?q="+url.QueryEscape("beach dress")+"&k=5", nil)}, 0},
		{"a topic", []*http.Request{httptest.NewRequest("GET", fmt.Sprintf("/api/topics/%d", root), nil)}, 0},
		{"a topic's items", []*http.Request{httptest.NewRequest("GET", fmt.Sprintf("/api/topics/%d/items", root), nil)}, 0},
		{"a topic's items in a category", []*http.Request{httptest.NewRequest("GET", fmt.Sprintf("/api/topics/%d/items?category=%d", root, rootCat), nil)}, 0},
		{"a category's related", []*http.Request{httptest.NewRequest("GET", fmt.Sprintf("/api/categories/%d/related", pairs[0].A), nil)}, 0},
		{"a bypassed search", bypass, 1},
	} {
		w := &sink{h: make(http.Header)}
		h.ServeHTTP(w, tc.reqs[0]) // warm the pools
		if w.status != 0 && w.status != http.StatusOK {
			t.Fatalf("%s: GET %s = %d", tc.name, tc.reqs[0].RequestURI, w.status)
		}
		bypasses := h.searchResults[resultBypass].Value()
		next := 1 % len(tc.reqs)
		n := testing.AllocsPerRun(200, func() {
			h.ServeHTTP(w, tc.reqs[next])
			next = (next + 1) % len(tc.reqs)
		})
		if n > tc.max {
			t.Errorf("%s allocated %.1f objects per request, want <= %.0f", tc.name, n, tc.max)
		}
		if got := h.searchResults[resultBypass].Value() - bypasses; len(tc.reqs) > 1 && got != 201 {
			t.Errorf("%s: %d of 201 requests were bypasses", tc.name, got)
		}
		t.Logf("%s: %.1f allocs", tc.name, n)
	}
	// 200 distinct searches after a warm-up one, each sent once: every
	// one is searched and stored. (k first: none repeats the raw query
	// string served above.)
	var distinct []*http.Request
	for _, q := range []string{"beach dress", "beach", "dress"} {
		for k := 1; k <= 67; k++ {
			distinct = append(distinct, httptest.NewRequest("GET", fmt.Sprintf("/api/search?k=%d&q=%s", k, url.QueryEscape(q)), nil))
		}
	}
	w := &sink{h: make(http.Header)}
	misses := h.searchResults[resultMiss].Value()
	next := 0
	n := testing.AllocsPerRun(len(distinct)-1, func() {
		h.ServeHTTP(w, distinct[next])
		next++
	})
	if n > 3 {
		t.Errorf("a distinct search allocated %.1f objects per request, want <= 3", n)
	}
	if got := h.searchResults[resultMiss].Value() - misses; got != uint64(len(distinct)) {
		t.Errorf("%d distinct searches stored %d answers", len(distinct), got)
	}
	t.Logf("%d distinct searches: %.1f allocs", len(distinct)-1, n)
}

// TestMissAfterSwapAllocs swaps in a build with a freshly built search
// index before each of 20 searches, every one a miss on its snapshot:
// the miss's pooled scratch scores any index, so a swap plus the first
// miss on a new index allocates no more than TestSwapAllocs's four
// objects and TestServeAllocs's three of a distinct search.
func TestMissAfterSwapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool caching is disabled under the race detector")
	}
	b := getBuild(t)
	h, err := NewHandler(b)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	builds := make([]*core.Build, runs+1)
	for i := range builds {
		s, err := taxonomy.NewSearcherFrom(context.Background(), b.Taxonomy, new(bm25.Builder),
			bm25.IDs(b.SearchDocIDs(core.DefaultConfig().SearchDocTokenCap)), b.Corpus.Text().Vocab())
		if err != nil {
			t.Fatal(err)
		}
		fresh := *b
		fresh.Searcher = s
		builds[i] = &fresh
	}
	req := httptest.NewRequest("GET", "/api/search?q="+url.QueryEscape("beach dress")+"&k=5", nil)
	w := &sink{h: make(http.Header)}
	h.ServeHTTP(w, req) // warm the pool
	misses := h.searchResults[resultMiss].Value()
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		if err := h.Swap(builds[next]); err != nil {
			t.Fatal(err)
		}
		h.ServeHTTP(w, req)
		next++
	})
	if n > 4+3 {
		t.Errorf("a swap to a fresh index and its first search allocated %.1f objects, want <= 7", n)
	}
	if got := h.searchResults[resultMiss].Value() - misses; got != runs+1 {
		t.Errorf("%d searches on fresh snapshots stored %d answers", runs+1, got)
	}
}

// The reference allocations of TestSwapAllocs, kept on the heap.
var (
	sinkSnap    *snapshot
	sinkHeads   []byte
	sinkOff     []int32
	sinkResults []searchSlot
)

// allocatedBytes returns the heap bytes one call of f allocates,
// averaged over runs calls after a warm-up call.
func allocatedBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// swapSlackBytes is what a Swap may allocate beyond its snapshot, heads,
// offsets and search result table.
const swapSlackBytes = 64

// repeatTopics returns b with its taxonomy's topics repeated to n, each
// under its own id; the repeats keep their parents, so the roots repeat
// with them.
func repeatTopics(b *core.Build, n int) *core.Build {
	big := *b
	tx := *b.Taxonomy
	tx.Topics = make([]taxonomy.Topic, n)
	for i := range tx.Topics {
		tx.Topics[i] = b.Taxonomy.Topics[i%len(b.Taxonomy.Topics)]
		tx.Topics[i].ID = model.TopicID(i)
	}
	big.Taxonomy = &tx
	return &big
}

// TestSwapAllocs holds Swap to four objects at any topic count — the
// snapshot, its summary heads, their offsets and its empty search result
// table — and its bytes to those four allocated at their exact sizes
// plus swapSlackBytes. The heads are sized before they are rendered, so
// a buffer that regrows while rendering fails it.
func TestSwapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	small := getBuild(t)
	for _, b := range []*core.Build{small, repeatTopics(small, 4000)} {
		h, err := NewHandler(b)
		if err != nil {
			t.Fatal(err)
		}
		swap := func() {
			if err := h.Swap(b); err != nil {
				t.Fatal(err)
			}
		}
		topics := len(b.Taxonomy.Topics)
		if n := testing.AllocsPerRun(20, swap); n != 4 {
			t.Errorf("%d topics: Swap allocated %.1f objects, want 4", topics, n)
		}
		snap := h.cur.Load()
		want := allocatedBytes(20, func() {
			sinkSnap = new(snapshot)
			sinkHeads = make([]byte, len(snap.heads.buf))
			sinkOff = make([]int32, len(snap.heads.off))
			sinkResults = make([]searchSlot, len(snap.results))
		})
		got := allocatedBytes(20, swap)
		if got > want+swapSlackBytes {
			t.Errorf("%d topics: Swap allocated %.0f B, want <= %.0f (snapshot, %d B of heads, %d offsets and %d slots) + %d",
				topics, got, want, len(snap.heads.buf), len(snap.heads.off), len(snap.results), swapSlackBytes)
		}
		t.Logf("%d topics: %d B of heads, Swap allocates %.0f B (reference %.0f)", topics, len(snap.heads.buf), got, want)
	}
}

// TestStatsBytesIndependentOfRoots holds /api/stats to the same bytes
// per request on the test build and on its topics repeated to 4 000,
// with as many times the roots: the root count is the snapshot's, not
// a list of them built per request.
func TestStatsBytesIndependentOfRoots(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	small := getBuild(t)
	big := repeatTopics(small, 4000)
	req := httptest.NewRequest("GET", "/api/stats", nil)
	var perReq [2]float64
	for i, b := range []*core.Build{small, big} {
		h, err := NewHandler(b)
		if err != nil {
			t.Fatal(err)
		}
		w := &sink{h: make(http.Header)}
		perReq[i] = allocatedBytes(50, func() { h.ServeHTTP(w, req) })
		var st Stats
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if want := len(b.Taxonomy.Roots()); st.RootTopics != want {
			t.Fatalf("%d topics: /api/stats reports %d roots, want %d", len(b.Taxonomy.Topics), st.RootTopics, want)
		}
		t.Logf("%d topics, %d roots: %.0f B a request", len(b.Taxonomy.Topics), st.RootTopics, perReq[i])
	}
	if len(big.Taxonomy.Roots()) < 10*len(small.Taxonomy.Roots()) {
		t.Fatalf("%d roots against %d: the repeat does not grow the roots", len(big.Taxonomy.Roots()), len(small.Taxonomy.Roots()))
	}
	if perReq[1] > perReq[0]+swapSlackBytes {
		t.Errorf("/api/stats allocates %.0f B a request over %d roots, %.0f B over %d",
			perReq[1], len(big.Taxonomy.Roots()), perReq[0], len(small.Taxonomy.Roots()))
	}
}

// TestRefsRenderedOncePerCorpus holds the fragment table to one render
// per corpus: NewHandler renders it, a Swap to a build over the same
// *model.Corpus keeps the published table (the same pointer), and a
// Swap to a build over another corpus renders that corpus's table, which
// the next same-corpus Swap keeps in turn. Each table is the corpus's
// refs as newFragments renders them, at its exact size.
func TestRefsRenderedOncePerCorpus(t *testing.T) {
	test, twisted := getBuild(t), twistedBuild(t)
	// Another build over the test build's corpus: its taxonomy, not its
	// corpus, is new.
	again := *test
	tx := *test.Taxonomy
	tx.Topics = slices.Clone(tx.Topics)
	again.Taxonomy = &tx
	h, err := NewHandler(test)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, want *fragments) *fragments {
		t.Helper()
		got := h.cur.Load().refs
		if want != nil && got != want {
			t.Fatalf("%s: the snapshot holds a new fragment table, want the published one", name)
		}
		c := h.Current().Corpus
		fresh := newFragments(c)
		if !bytes.Equal(got.buf, fresh.buf) || !slices.Equal(got.off, fresh.off) {
			t.Fatalf("%s: the fragment table is not its corpus's", name)
		}
		if cap(got.buf) != len(got.buf) || len(got.off) != len(c.Items)+len(c.Categories)+1 {
			t.Fatalf("%s: %d B table in %d B, %d offsets: not at its exact size", name, len(got.buf), cap(got.buf), len(got.off))
		}
		return got
	}
	first := check("NewHandler", nil)
	for _, step := range []struct {
		name    string
		b       *core.Build
		renders bool
	}{
		{"a Swap to the same build", test, false},
		{"a Swap to another build over the same corpus", &again, false},
		{"a Swap to a build over another corpus", twisted, true},
		{"a Swap to the same build again", twisted, false},
		{"a Swap back to the first corpus", test, true},
	} {
		prev := h.cur.Load().refs
		if err := h.Swap(step.b); err != nil {
			t.Fatal(err)
		}
		if step.renders {
			if got := check(step.name, nil); got == prev || got == first {
				t.Fatalf("%s kept a table of another corpus", step.name)
			}
		} else {
			check(step.name, prev)
		}
	}
}
