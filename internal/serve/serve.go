// Package serve exposes a built SHOAL system over HTTP/JSON. The deployed
// system "supports millions of searches for online shopping per day" (§1);
// this handler is that serving surface: read-only, safe for concurrent
// use, one endpoint per demo scenario (Fig. 5).
//
//	GET /api/search?q=beach+dress&k=5      scenario A: query → topics
//	GET /api/topics/{id}                   scenario B: topic + sub-topics
//	GET /api/topics/{id}/items?category=3  scenario C: topic → category → items
//	GET /api/categories/{id}/related       scenario D: category correlations
//	GET /api/stats                         build statistics + stage timings + serving telemetry
//	                                       (+ a delta section for incremental rebuilds:
//	                                       dirty items/rows, changed edges, dense
//	                                       fallback, dropped stale events)
//	GET /api/trace                         build execution trace (Chrome trace-event JSON)
//	GET /metrics                           Prometheus text exposition
//
// The handler holds the current build behind an atomic pointer: Swap
// publishes a fresh build (e.g. a daily sliding-window rebuild) with zero
// downtime. Each request loads one consistent snapshot at entry, so a swap
// mid-request cannot mix two builds in one response. A snapshot carries
// every topic's summary head, rendered once when it is published, so
// /api/search formats only each hit's score and /api/topics/{id} copies
// its own head and its sub-topics'. It also carries its corpus's
// fragment table: every item's ItemRef object and every category's
// CategoryRef head, rendered once per corpus (a swap to a build over the
// same *model.Corpus keeps the table), so /api/topics/{id}/items,
// /api/topics/{id}'s categoryRefs and /api/categories/{id}/related copy
// refs instead of escaping titles and names per request.
//
// Requests are dispatched by a fixed route table (route.go), not an
// http.ServeMux: the path is matched against the seven routes in code
// and an {id} route's handler gets the id as an argument. It answers
// every request the way a ServeMux with the same patterns would,
// including its own 404s, 405s (Allow: GET, HEAD) and 301s to a cleaned
// path, and HEAD on every route; FuzzRoute holds it to one.
//
// A search is answered from the snapshot's search result table when the
// snapshot has answered the same raw query string before (results.go):
// the stored hits are rendered through the summary heads, with no
// parameter parsing, tokenizing or BM25. Otherwise the handler parses q
// and k, runs the snapshot's searcher into pooled scratch and renders
// its hits the same way, then stores them in the table unless the
// request was refused (400) or the answer is too large to store. A
// stored hit is a 16-byte record, its topic and its score's shortest
// decimal digits and exponent, so a hit's render places digits instead
// of formatting a float64. The table dies with its snapshot. /metrics
// counts searches by outcome in shoal_search_cache_total, and /api/stats
// reports the same counts and the table's slot count.
//
// The route table also observes every request, by the route it picked:
// it calls obs.HTTPMetrics' Begin at entry and a deferred Finish with the
// status the route's handler returned (or the status of its own 301,
// 400, 404 or 405), so per-route latency histograms, status-class
// counters and an in-flight gauge cost no wrapped writer and no
// allocation. A handler writes its response in one call at its end, so
// when one panics nothing is written yet, and Finish answers 500 and
// counts the panic. The swap generation is a gauge set when a build is
// published.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shoal/internal/catcorr"
	"shoal/internal/core"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/taxonomy"
)

// Handler serves the current build snapshot and supports hot swaps.
type Handler struct {
	cur atomic.Pointer[snapshot]
	// swapMu serializes Swap so concurrent publishers cannot lose a swap
	// count; request handlers never take it.
	swapMu sync.Mutex
	// routes is the instrumented route table (route.go); reg is the
	// registry behind /metrics, and routes.metrics the "http" section of
	// /api/stats.
	routes router
	reg    *obs.Registry
	// droppedStale mirrors the published build's window counter of
	// stale (already-evicted-day) click events dropped at ingestion —
	// the clicks the delta tracker refuses to double-count. Updated on
	// every publish, exported via /metrics.
	droppedStale *obs.Gauge
	// generation is the published snapshot's swap count, set on every
	// publish, exported via /metrics.
	generation *obs.Gauge
	// searchResults counts searches by how the snapshots' result tables
	// answered them.
	searchResults [numResults]*obs.Counter
}

// snapshot pairs a build with the swap count that published it, so one
// atomic load yields a fully consistent /api/stats payload.
// droppedStale is captured from the build's click window at publish
// time: the window keeps ingesting after the build is published, so
// request handlers must not read it live.
type snapshot struct {
	build        *core.Build
	swaps        int64
	droppedStale int64
	// roots counts the build's root topics, for /api/stats.
	roots int
	// heads.at(i) is topic i's summary head (a topic's ID is its index):
	// its TopicSummary up to the score, without the closing brace.
	heads table
	// refs is build.Corpus's fragment table, shared by every snapshot
	// over the same corpus.
	refs *fragments
	// results is the snapshot's search result table (results.go), a
	// power-of-two number of slots indexed by a maphash under seed, a
	// random seed of the snapshot's own.
	results []searchSlot
	seed    maphash.Seed
}

// head returns topic t's pre-rendered summary head.
func (s *snapshot) head(t model.TopicID) []byte { return s.heads.at(int(t)) }

// fragments is one corpus's pre-rendered refs: at(i) is item i's ItemRef
// object, closed, and at(n+c), for n items, category c's CategoryRef
// head, without the closing brace. The corpus is immutable once a
// pipeline has seen it, so the table is rendered once per corpus
// (newFragments) and never by a request.
type fragments struct {
	table
	// items is the corpus's item count: the categories' fragments follow
	// the items'.
	items int
}

// item returns item i's ItemRef object.
func (f *fragments) item(i model.ItemID) []byte { return f.at(int(i)) }

// category returns category c's CategoryRef head.
func (f *fragments) category(c model.CategoryID) []byte { return f.at(f.items + int(c)) }

// NewHandler wraps a completed build. The build must not be mutated after
// it is handed over; publish updates with Swap instead. It renders the
// build's summary heads and its corpus's fragment table (≈110 B an item
// of a generated catalog), so no request renders either.
func NewHandler(b *core.Build) (*Handler, error) {
	if err := checkBuild(b); err != nil {
		return nil, err
	}
	h := &Handler{reg: obs.NewRegistry()}
	h.droppedStale = h.reg.Gauge("shoal_window_dropped_stale_events", "",
		"stale click events (already-evicted days) dropped at window ingestion, as of the published build")
	h.generation = h.reg.Gauge("shoal_build_generation", "", "snapshot swap count of the published build")
	h.searchResults = newResultCounters(h.reg)
	h.cur.Store(h.newSnapshot(b, nil))
	h.routes = router{
		handlers: [numRoutes]routeHandler{
			routeSearch: h.search, routeTopic: h.topic, routeTopicItems: h.topicItems,
			routeRelated: h.related, routeStats: h.stats, routeTrace: h.trace, routeMetrics: h.metrics,
		},
		metrics: obs.NewHTTPMetrics(h.reg, routeLabels[1:]...),
	}
	return h, nil
}

func checkBuild(b *core.Build) error {
	if b == nil || b.Taxonomy == nil {
		return fmt.Errorf("serve: nil build")
	}
	// Handlers dereference these on every request; rejecting a partial
	// build here keeps Swap's zero-downtime promise.
	if b.Corpus == nil || b.Entities == nil {
		return fmt.Errorf("serve: build missing corpus or entities")
	}
	return nil
}

// Swap atomically publishes a new build. In-flight requests finish against
// the snapshot they started with; subsequent requests see the new build.
// It renders every topic's summary head (≈80 B a topic) before the
// publish, so its cost grows with the topic count: four allocations,
// the snapshot, its heads and offsets and its empty search result
// table, each at its exact size. A build over the published snapshot's
// *model.Corpus (every slide of a daily pipeline) keeps that snapshot's
// fragment table; a build over another corpus renders its own, as
// NewHandler does.
func (h *Handler) Swap(b *core.Build) error {
	if err := checkBuild(b); err != nil {
		return err
	}
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	h.cur.Store(h.newSnapshot(b, h.cur.Load()))
	return nil
}

// newSnapshot captures the publish-time window state alongside the
// build, renders the build's summary heads, takes prev's fragment table
// when b shares prev's corpus and renders one otherwise, gives the
// snapshot an empty search result table and refreshes the gauges of the
// published build: its swap count (prev's plus one, 0 without prev) and
// its window's dropped events. Publishers call this before the window
// resumes ingesting, so the read is race-free.
func (h *Handler) newSnapshot(b *core.Build, prev *snapshot) *snapshot {
	s := &snapshot{
		build: b, heads: newHeads(b.Taxonomy.Topics),
		results: make([]searchSlot, searchSlots(len(b.Corpus.Queries))),
		seed:    maphash.MakeSeed(),
	}
	if prev != nil {
		s.swaps = prev.swaps + 1
		if prev.build.Corpus == b.Corpus {
			s.refs = prev.refs
		}
	}
	if s.refs == nil {
		s.refs = newFragments(b.Corpus)
	}
	for i := range b.Taxonomy.Topics {
		if b.Taxonomy.Topics[i].Parent == taxonomy.NoTopic {
			s.roots++
		}
	}
	if b.Clicks != nil {
		s.droppedStale = b.Clicks.Stats().DroppedStale
	}
	h.droppedStale.Set(s.droppedStale)
	h.generation.Set(s.swaps)
	return s
}

// Current returns the build snapshot requests are being served from.
func (h *Handler) Current() *core.Build { return h.cur.Load().build }

// Swaps returns how many times a new build has been published.
func (h *Handler) Swaps() int64 { return h.cur.Load().swaps }

// Registry exposes the handler's metrics registry so the process can
// register more instruments (shoal-serve's runtime sampler) into the
// same /metrics surface.
func (h *Handler) Registry() *obs.Registry { return h.reg }

// ServeHTTP implements http.Handler: the route table answers and
// observes every request.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.routes.ServeHTTP(w, r) }

// Bare returns the same route table with its instruments off: identical
// routing and handlers, nothing timed or counted. It exists for the
// obs-overhead benchmark (instrumented vs. bare request cost);
// production callers want ServeHTTP.
func (h *Handler) Bare() http.Handler {
	bare := h.routes
	bare.metrics = nil
	return &bare
}

// TopicSummary is the wire form of a topic reference.
type TopicSummary struct {
	ID          model.TopicID `json:"id"`
	Description string        `json:"description"`
	Level       int           `json:"level"`
	Items       int           `json:"items"`
	Categories  int           `json:"categories"`
	Score       float64       `json:"score,omitempty"`
}

// TopicDetail is the wire form of one topic (scenario B).
type TopicDetail struct {
	TopicSummary
	Queries    []string       `json:"queries"`
	SubTopics  []TopicSummary `json:"subTopics"`
	Categories []CategoryRef  `json:"categoryRefs"`
}

// CategoryRef names a category.
type CategoryRef struct {
	ID   model.CategoryID `json:"id"`
	Name string           `json:"name"`
}

// ItemRef is the wire form of an item.
type ItemRef struct {
	ID       model.ItemID     `json:"id"`
	Title    string           `json:"title"`
	Category model.CategoryID `json:"category"`
}

// RelatedCategory is one Eq. 5 correlation edge (scenario D).
type RelatedCategory struct {
	CategoryRef
	Strength int `json:"strength"`
}

// StageStat is one pipeline stage's timing in the stats payload. Start is
// the offset from pipeline start, so overlap between concurrently executed
// stages is visible.
type StageStat struct {
	Stage     string  `json:"stage"`
	StartMs   float64 `json:"startMs"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// DeltaStat is the delta section of the stats payload: how much of the
// window changed since the previous build and how much of the entity
// graph the patch rewrote. A one-shot build, having no previous one,
// reads as a no-state dense fallback.
type DeltaStat struct {
	DirtyItems    int  `json:"dirtyItems"`
	DirtyEntities int  `json:"dirtyEntities"`
	ChangedEdges  int  `json:"changedEdges"`
	DirtyRows     int  `json:"dirtyRows"`
	RankedNodes   int  `json:"rankedNodes"`
	DenseFallback bool `json:"denseFallback"`
	// DenseFallbackReason says why the entity graph was built in full:
	// no-state or dirty-pairs (more than half of the retained candidate
	// pairs touch a changed entity). ChangedEdges and DirtyRows are zero
	// on a fallback.
	DenseFallbackReason string `json:"denseFallbackReason,omitempty"`
	// DroppedStale is the window's cumulative count of stale
	// (already-evicted-day) events dropped at ingestion.
	DroppedStale int64 `json:"droppedStale"`
}

// Stats is the /api/stats payload.
type Stats struct {
	Items        int   `json:"items"`
	Queries      int   `json:"queries"`
	Categories   int   `json:"categories"`
	Entities     int   `json:"entities"`
	Topics       int   `json:"topics"`
	RootTopics   int   `json:"rootTopics"`
	Correlations int   `json:"correlations"`
	Swaps        int64 `json:"swaps"`
	// Delta is present when the build reports one; core sets it on every
	// build.
	Delta       *DeltaStat      `json:"delta,omitempty"`
	Stages      []StageStat     `json:"stages"`
	HTTP        obs.HTTPSummary `json:"http"`
	SearchCache SearchCacheStat `json:"searchCache"`
}

// search answers from the snapshot's result table when it holds the
// raw query string, and otherwise searches and stores the answer.
func (h *Handler) search(w http.ResponseWriter, r *http.Request, _ string) int {
	snap := h.cur.Load()
	raw := r.URL.RawQuery
	slot, hash, e := snap.lookup(raw)
	if e != nil {
		h.searchResults[resultHit].Inc()
		return snap.sendHits(w, e.hits)
	}
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	if refused := snap.searchHits(sc, raw); refused != "" {
		h.searchResults[resultBypass].Inc()
		return httpError(w, http.StatusBadRequest, refused)
	}
	hits := sc.hits
	var recs []hitRecord
	if storable(r, len(hits)) {
		recs = appendRecords(make([]hitRecord, 0, len(hits)), hits)
		slot.store(hash, &searchEntry{key: raw, hits: recs})
		h.searchResults[resultMiss].Inc()
	} else {
		recs = appendRecords(sc.recs[:0], hits)
		sc.recs = recs
		h.searchResults[resultBypass].Inc()
	}
	return snap.sendHits(w, recs)
}

func (h *Handler) topic(w http.ResponseWriter, r *http.Request, id string) int {
	snap := h.cur.Load()
	b := snap.build
	t, status := topicOf(w, id, b)
	if t == nil {
		return status
	}
	// As encoding/json writes TopicDetail: queries is null only for nil
	// DescQueries, subTopics and categoryRefs whenever they are empty.
	bp := body()
	out := append(append((*bp)[:0], snap.head(t.ID)...), `,"queries":`...)
	out = appendArray(out, len(t.DescQueries), t.DescQueries == nil, func(dst []byte, i int) []byte {
		return appendJSONString(dst, t.DescQueries[i])
	})
	out = appendArray(append(out, `,"subTopics":`...), len(t.Children), len(t.Children) == 0, func(dst []byte, i int) []byte {
		return append(append(dst, snap.head(t.Children[i])...), '}')
	})
	out = appendArray(append(out, `,"categoryRefs":`...), len(t.Categories), len(t.Categories) == 0, func(dst []byte, i int) []byte {
		return append(append(dst, snap.refs.category(t.Categories[i])...), '}')
	})
	return send(w, bp, append(out, '}'))
}

func (h *Handler) topicItems(w http.ResponseWriter, r *http.Request, id string) int {
	snap := h.cur.Load()
	b := snap.build
	t, status := topicOf(w, id, b)
	if t == nil {
		return status
	}
	var p [1]string
	queryParams(r.URL.RawQuery, []string{"category"}, p[:])
	cat := -1 // no filter
	if cs := p[0]; cs != "" {
		v, err := strconv.Atoi(cs)
		if err != nil || v < 0 || v >= len(b.Corpus.Categories) {
			return httpError(w, http.StatusBadRequest, "unknown category")
		}
		cat = v
	}
	bp := body()
	out := append((*bp)[:0], '[')
	n := 0
	for _, it := range t.Items {
		if cat >= 0 && int(b.Corpus.Items[it].Category) != cat {
			continue
		}
		if n > 0 {
			out = append(out, ',')
		}
		out = append(out, snap.refs.item(it)...)
		n++
	}
	return send(w, bp, append(out, ']'))
}

func (h *Handler) related(w http.ResponseWriter, r *http.Request, ids string) int {
	snap := h.cur.Load()
	b := snap.build
	id, err := strconv.Atoi(ids)
	if err != nil || id < 0 || id >= len(b.Corpus.Categories) {
		return httpError(w, http.StatusNotFound, "unknown category")
	}
	var rel []catcorr.Correlation
	if b.Correlations != nil {
		rel = b.Correlations.Related(model.CategoryID(id))
	}
	bp := body()
	return send(w, bp, appendArray((*bp)[:0], len(rel), false, func(dst []byte, i int) []byte {
		other := rel[i].A
		if other == model.CategoryID(id) {
			other = rel[i].B
		}
		dst = append(append(dst, snap.refs.category(other)...), `,"strength":`...)
		return append(strconv.AppendInt(dst, int64(rel[i].Strength), 10), '}')
	}))
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request, _ string) int {
	snap := h.cur.Load()
	b := snap.build
	out := Stats{
		Items:      len(b.Corpus.Items),
		Queries:    len(b.Corpus.Queries),
		Categories: len(b.Corpus.Categories),
		Entities:   len(b.Entities.Entities),
		Topics:     len(b.Taxonomy.Topics),
		RootTopics: snap.roots,
		Swaps:      snap.swaps,
		HTTP:       h.routes.metrics.Summary(),
		SearchCache: SearchCacheStat{
			Slots:    len(snap.results),
			Hits:     h.searchResults[resultHit].Value(),
			Misses:   h.searchResults[resultMiss].Value(),
			Bypasses: h.searchResults[resultBypass].Value(),
		},
	}
	if b.Correlations != nil {
		out.Correlations = len(b.Correlations.Pairs())
	}
	if b.Delta != nil {
		out.Delta = &DeltaStat{
			DirtyItems:          b.Delta.DirtyItems,
			DirtyEntities:       b.Delta.DirtyEntities,
			ChangedEdges:        b.Delta.ChangedEdges,
			DirtyRows:           b.Delta.DirtyRows,
			RankedNodes:         b.Delta.RankedNodes,
			DenseFallback:       b.Delta.DenseFallback,
			DenseFallbackReason: b.Delta.DenseFallbackReason,
		}
		out.Delta.DroppedStale = snap.droppedStale
	}
	for _, st := range b.StageTimings {
		out.Stages = append(out.Stages, StageStat{
			Stage:     st.Stage,
			StartMs:   float64(st.Start) / float64(time.Millisecond),
			ElapsedMs: float64(st.Elapsed) / float64(time.Millisecond),
		})
	}
	// json.Encoder renders the whole value before its one Write. An
	// encoding error leaves nothing to do: the header is sent.
	w.Header()["Content-Type"] = jsonContentType
	_ = json.NewEncoder(w).Encode(out)
	return http.StatusOK
}

// trace serves the current build's execution trace as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto). Swaps change which
// build's trace is served, like every other endpoint.
func (h *Handler) trace(w http.ResponseWriter, r *http.Request, _ string) int {
	b := h.cur.Load().build
	if b.Trace == nil {
		return httpError(w, http.StatusNotFound, "build has no trace")
	}
	var buf bytes.Buffer
	if err := b.Trace.WriteChrome(&buf); err != nil {
		return httpError(w, http.StatusInternalServerError, err.Error())
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
	return http.StatusOK
}

// metrics serves the registry in the Prometheus text format.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request, _ string) int {
	var buf bytes.Buffer
	_ = h.reg.WritePrometheus(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
	return http.StatusOK
}

// topicOf returns the topic a route's {id} names, or answers the request
// with the error and returns its status. The id is parsed as an int64
// and range-checked before it becomes a TopicID, so no id wraps onto a
// topic, on any architecture.
func topicOf(w http.ResponseWriter, ids string, b *core.Build) (*taxonomy.Topic, int) {
	id, err := strconv.ParseInt(ids, 10, 64)
	if err != nil {
		return nil, httpError(w, http.StatusBadRequest, "topic id must be an integer")
	}
	if n := len(b.Taxonomy.Topics); id < 0 || id >= int64(n) {
		return nil, httpError(w, http.StatusNotFound, fmt.Sprintf("taxonomy: topic %d out of range [0,%d)", id, n))
	}
	return &b.Taxonomy.Topics[id], 0
}

// httpError answers the request with code and an {"error": msg} body,
// and returns code.
func httpError(w http.ResponseWriter, code int, msg string) int {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
	return code
}
