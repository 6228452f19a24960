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
// its own head and its sub-topics'.
//
// Every request passes through the obs middleware: per-route latency
// histograms, status-class counters, an in-flight gauge and the swap
// generation observed at completion, all allocation-free per request.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	mux    *http.ServeMux
	// wrapped is the instrumented mux ServeHTTP dispatches to; reg and
	// metrics are the observability surface behind /metrics and the
	// "http" section of /api/stats.
	wrapped http.Handler
	reg     *obs.Registry
	metrics *obs.HTTPMetrics
	// headBuf is the scratch each snapshot's heads are rendered into
	// before they are copied out at their exact size; only the publisher
	// holding swapMu (or NewHandler, before the handler is shared)
	// touches it.
	headBuf []byte
	// droppedStale mirrors the published build's window counter of
	// stale (already-evicted-day) click events dropped at ingestion —
	// the clicks the delta tracker refuses to double-count. Updated on
	// every publish, exported via /metrics.
	droppedStale *obs.Gauge
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
	// heads[headOff[i]:headOff[i+1]] is topic i's summary head (a topic's
	// ID is its index): its TopicSummary up to the score, without the
	// closing brace.
	heads   []byte
	headOff []int32
}

// head returns topic t's pre-rendered summary head.
func (s *snapshot) head(t model.TopicID) []byte { return s.heads[s.headOff[t]:s.headOff[t+1]] }

// NewHandler wraps a completed build. The build must not be mutated after
// it is handed over; publish updates with Swap instead.
func NewHandler(b *core.Build) (*Handler, error) {
	if err := checkBuild(b); err != nil {
		return nil, err
	}
	h := &Handler{mux: http.NewServeMux(), reg: obs.NewRegistry()}
	h.droppedStale = h.reg.Gauge("shoal_window_dropped_stale_events", "",
		"stale click events (already-evicted days) dropped at window ingestion, as of the published build")
	h.cur.Store(h.newSnapshot(b, 0))
	m := obs.NewHTTPMetrics(h.reg)
	m.Generation = h.Swaps
	h.metrics = m
	h.mux.HandleFunc("GET /api/search", m.Route("/api/search", h.search))
	h.mux.HandleFunc("GET /api/topics/{id}", m.Route("/api/topics/{id}", h.topic))
	h.mux.HandleFunc("GET /api/topics/{id}/items", m.Route("/api/topics/{id}/items", h.topicItems))
	h.mux.HandleFunc("GET /api/categories/{id}/related", m.Route("/api/categories/{id}/related", h.related))
	h.mux.HandleFunc("GET /api/stats", m.Route("/api/stats", h.stats))
	h.mux.HandleFunc("GET /api/trace", m.Route("/api/trace", h.trace))
	metricsHandler := h.reg.Handler()
	h.mux.HandleFunc("GET /metrics", m.Route("/metrics", func(w http.ResponseWriter, r *http.Request) {
		metricsHandler.ServeHTTP(w, r)
	}))
	h.wrapped = m.WrapMux(h.mux)
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
// publish, so its cost grows with the topic count: three allocations,
// the snapshot and its heads and offsets, each at its exact size.
func (h *Handler) Swap(b *core.Build) error {
	if err := checkBuild(b); err != nil {
		return err
	}
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	h.cur.Store(h.newSnapshot(b, h.cur.Load().swaps+1))
	return nil
}

// newSnapshot captures the publish-time window state alongside the
// build, renders the build's summary heads and refreshes the gauges
// derived from the window. Publishers call this before the window
// resumes ingesting, so the read is race-free.
func (h *Handler) newSnapshot(b *core.Build, swaps int64) *snapshot {
	topics := b.Taxonomy.Topics
	s := &snapshot{build: b, swaps: swaps, headOff: make([]int32, len(topics)+1)}
	buf := h.headBuf[:0]
	for i := range topics {
		buf = openSummary(buf, &topics[i])
		s.headOff[i+1] = int32(len(buf))
	}
	h.headBuf = buf
	s.heads = bytes.Clone(buf)
	if b.Clicks != nil {
		s.droppedStale = b.Clicks.Stats().DroppedStale
	}
	h.droppedStale.Set(s.droppedStale)
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

// ServeHTTP implements http.Handler; every request passes through the
// obs middleware.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.wrapped.ServeHTTP(w, r) }

// Bare returns the uninstrumented mux — identical routing with the
// middleware layer skipped. It exists for the obs-overhead benchmark
// (instrumented vs. bare request cost); production callers want
// ServeHTTP.
func (h *Handler) Bare() http.Handler { return h.mux }

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
	Delta  *DeltaStat      `json:"delta,omitempty"`
	Stages []StageStat     `json:"stages"`
	HTTP   obs.HTTPSummary `json:"http"`
}

// maxQueryBytes bounds a search's q. Term de-duplication is quadratic in
// the query's terms, and the server's header limit alone admits ≈16 KB.
const maxQueryBytes = 1024

func (h *Handler) search(w http.ResponseWriter, r *http.Request) {
	snap := h.cur.Load()
	var p [2]string
	queryParams(r.URL.RawQuery, []string{"q", "k"}, p[:])
	q, ks := p[0], p[1]
	if q == "" {
		httpError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	if len(q) > maxQueryBytes {
		httpError(w, http.StatusBadRequest, "query parameter q is longer than "+strconv.Itoa(maxQueryBytes)+" bytes")
		return
	}
	k := 5
	if ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 || v > 100 {
			httpError(w, http.StatusBadRequest, "k must be an integer in [1,100]")
			return
		}
		k = v
	}
	var hits []taxonomy.Hit
	if snap.build.Searcher != nil {
		hits = snap.build.Searcher.Search(q, k)
	}
	bp := body()
	send(w, bp, appendArray((*bp)[:0], len(hits), false, func(dst []byte, i int) []byte {
		dst = append(dst, snap.head(hits[i].Topic)...)
		if score := hits[i].Score; score != 0 { // omitempty
			dst = appendJSONFloat(append(dst, `,"score":`...), score)
		}
		return append(dst, '}')
	}))
}

func (h *Handler) topic(w http.ResponseWriter, r *http.Request) {
	snap := h.cur.Load()
	b := snap.build
	t, ok := topicFromPath(w, r, b)
	if !ok {
		return
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
		cat := t.Categories[i]
		return append(openRef(dst, int64(cat), "name", b.Corpus.Categories[cat].Name), '}')
	})
	send(w, bp, append(out, '}'))
}

func (h *Handler) topicItems(w http.ResponseWriter, r *http.Request) {
	b := h.cur.Load().build
	t, ok := topicFromPath(w, r, b)
	if !ok {
		return
	}
	var p [1]string
	queryParams(r.URL.RawQuery, []string{"category"}, p[:])
	cat := -1 // no filter
	if cs := p[0]; cs != "" {
		v, err := strconv.Atoi(cs)
		if err != nil || v < 0 || v >= len(b.Corpus.Categories) {
			httpError(w, http.StatusBadRequest, "unknown category")
			return
		}
		cat = v
	}
	bp := body()
	out := append((*bp)[:0], '[')
	n := 0
	for _, it := range t.Items {
		item := &b.Corpus.Items[it]
		if cat >= 0 && int(item.Category) != cat {
			continue
		}
		if n > 0 {
			out = append(out, ',')
		}
		out = append(openRef(out, int64(it), "title", item.Title), `,"category":`...)
		out = append(strconv.AppendInt(out, int64(item.Category), 10), '}')
		n++
	}
	send(w, bp, append(out, ']'))
}

func (h *Handler) related(w http.ResponseWriter, r *http.Request) {
	b := h.cur.Load().build
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= len(b.Corpus.Categories) {
		httpError(w, http.StatusNotFound, "unknown category")
		return
	}
	var rel []catcorr.Correlation
	if b.Correlations != nil {
		rel = b.Correlations.Related(model.CategoryID(id))
	}
	bp := body()
	send(w, bp, appendArray((*bp)[:0], len(rel), false, func(dst []byte, i int) []byte {
		other := rel[i].A
		if other == model.CategoryID(id) {
			other = rel[i].B
		}
		dst = append(openRef(dst, int64(other), "name", b.Corpus.Categories[other].Name), `,"strength":`...)
		return append(strconv.AppendInt(dst, int64(rel[i].Strength), 10), '}')
	}))
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	snap := h.cur.Load()
	b := snap.build
	out := Stats{
		Items:      len(b.Corpus.Items),
		Queries:    len(b.Corpus.Queries),
		Categories: len(b.Corpus.Categories),
		Entities:   len(b.Entities.Entities),
		Topics:     len(b.Taxonomy.Topics),
		RootTopics: len(b.Taxonomy.Roots()),
		Swaps:      snap.swaps,
		HTTP:       h.metrics.Summary(),
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
	writeJSON(w, out)
}

// trace serves the current build's execution trace as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto). Swaps change which
// build's trace is served, like every other endpoint.
func (h *Handler) trace(w http.ResponseWriter, r *http.Request) {
	b := h.cur.Load().build
	if b.Trace == nil {
		httpError(w, http.StatusNotFound, "build has no trace")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = b.Trace.WriteChrome(w)
}

func topicFromPath(w http.ResponseWriter, r *http.Request, b *core.Build) (*taxonomy.Topic, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "topic id must be an integer")
		return nil, false
	}
	t, err := b.Taxonomy.Topic(model.TopicID(id))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return nil, false
	}
	return t, true
}

// writeJSON encodes v compactly with encoding/json — the routes off the
// request hot path (/api/stats).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = jsonContentType
	// An encoding error leaves nothing to do: the header is sent.
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
