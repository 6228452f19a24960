package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"testing"

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
				check(fmt.Sprintf("/api/search?q=%s&k=%d", url.QueryEscape(q), k), searchOf(b, q, k))
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

// TestAppendJSONFloat walks encoding/json's float format across its 'e'
// boundaries, both sides of each.
func TestAppendJSONFloat(t *testing.T) {
	floats := []float64{
		0, 1, -1, 0.5, 3.14159, 12.345678901234567, 1e-7, 1e-6, 9.999999999999999e-7,
		1e20, 1e21, 9.999999999999999e20, 1.5e-9, 1e-10, 5e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, 123456789012345678, 1e100, -2.5e-8,
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
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
// instrumented handler with a reused writer and prebuilt requests: a
// search allocates its unescaped q and its hits, a browse route at most
// two objects of the mux's own.
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
	pairs := b.Correlations.Pairs()
	if len(pairs) == 0 {
		t.Fatal("test build has no correlations")
	}
	for _, tc := range []struct {
		target string
		max    float64
	}{
		{"/api/search?q=" + url.QueryEscape("beach dress") + "&k=5", 3},
		{fmt.Sprintf("/api/topics/%d", root), 2},
		{fmt.Sprintf("/api/topics/%d/items", root), 2},
		{fmt.Sprintf("/api/categories/%d/related", pairs[0].A), 2},
	} {
		req := httptest.NewRequest("GET", tc.target, nil)
		w := &sink{h: make(http.Header)}
		h.ServeHTTP(w, req) // warm the pools
		if w.status != 0 && w.status != http.StatusOK {
			t.Fatalf("GET %s = %d", tc.target, w.status)
		}
		n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
		if n > tc.max {
			t.Errorf("GET %s allocated %.1f objects per request, want <= %.0f", tc.target, n, tc.max)
		}
		t.Logf("GET %s: %.0f allocs", tc.target, n)
	}
}

// The reference allocations of TestSwapAllocs, kept on the heap.
var (
	sinkSnap  *snapshot
	sinkHeads []byte
	sinkOff   []int32
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

// swapSlackBytes is what a Swap may allocate beyond its snapshot, heads
// and offsets.
const swapSlackBytes = 64

// TestSwapAllocs holds Swap to three objects at any topic count — the
// snapshot, its summary heads and their offsets — and its bytes to those
// three allocated at their exact sizes plus swapSlackBytes. The heads
// are rendered into the handler's scratch and copied out once, so a
// buffer that regrows while rendering fails it.
func TestSwapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	small := getBuild(t)
	// The test build's topics repeated to 4 000, each under its own id.
	big := *small
	tx := *small.Taxonomy
	tx.Topics = make([]taxonomy.Topic, 4000)
	for i := range tx.Topics {
		tx.Topics[i] = small.Taxonomy.Topics[i%len(small.Taxonomy.Topics)]
		tx.Topics[i].ID = model.TopicID(i)
	}
	big.Taxonomy = &tx
	for _, b := range []*core.Build{small, &big} {
		h, err := NewHandler(b) // renders the heads once: the scratch is warm
		if err != nil {
			t.Fatal(err)
		}
		swap := func() {
			if err := h.Swap(b); err != nil {
				t.Fatal(err)
			}
		}
		topics := len(b.Taxonomy.Topics)
		if n := testing.AllocsPerRun(20, swap); n != 3 {
			t.Errorf("%d topics: Swap allocated %.1f objects, want 3", topics, n)
		}
		snap := h.cur.Load()
		want := allocatedBytes(20, func() {
			sinkSnap = new(snapshot)
			sinkHeads = make([]byte, len(snap.heads))
			sinkOff = make([]int32, len(snap.headOff))
		})
		got := allocatedBytes(20, swap)
		if got > want+swapSlackBytes {
			t.Errorf("%d topics: Swap allocated %.0f B, want <= %.0f (snapshot, %d B of heads and %d offsets) + %d",
				topics, got, want, len(snap.heads), len(snap.headOff), swapSlackBytes)
		}
		t.Logf("%d topics: %d B of heads, Swap allocates %.0f B (reference %.0f)", topics, len(snap.heads), got, want)
	}
}
