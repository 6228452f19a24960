package obs

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Trace records a hierarchy of timed spans — one build's execution
// tree: pipeline stages at the roots, clustering merge rounds under the
// parallel-hac stage. It is safe for concurrent spans (stages run in parallel) and exports Chrome
// trace-event JSON loadable in chrome://tracing / Perfetto.
//
// All Span methods and Trace.StartSpan are nil-receiver-safe no-ops, so
// instrumented code runs untouched when no trace is installed.
type Trace struct {
	mu    sync.Mutex
	name  string
	start time.Time
	spans []spanData
}

// spanData is one recorded span. Start/End are offsets from the trace
// start; lanes map to Chrome tids: each root span opens a lane and its
// descendants inherit it, so concurrent roots render side by side while
// nesting within a lane follows time containment.
type spanData struct {
	name   string
	parent int // span index, -1 for roots
	lane   int
	start  time.Duration
	end    time.Duration // 0 while open
	attrs  []Attr
}

// Attr is one span attribute, emitted into the Chrome event's args.
type Attr struct {
	Key   string
	Value any // json-encodable; int/int64/float64 in practice
}

// Span is a handle to an open (or finished) span.
type Span struct {
	t  *Trace
	id int
}

// NewTrace starts an empty trace; the clock starts now.
func NewTrace(name string) *Trace {
	return &Trace{name: name, start: time.Now()}
}

// StartSpan opens a root-level span in its own lane. Nil-safe.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.open(name, -1)
}

func (t *Trace) open(name string, parent int) *Span {
	now := time.Since(t.start)
	t.mu.Lock()
	id := len(t.spans)
	lane := 0
	if parent >= 0 {
		lane = t.spans[parent].lane
	} else {
		for _, s := range t.spans {
			if s.parent == -1 {
				lane++
			}
		}
	}
	t.spans = append(t.spans, spanData{name: name, parent: parent, lane: lane, start: now})
	t.mu.Unlock()
	return &Span{t: t, id: id}
}

// Child opens a sub-span. Nil-safe: a nil parent yields a nil child.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.open(name, s.id)
}

// SetAttr attaches a key/value attribute. Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// End closes the span. Nil-safe; a second End keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Since(s.t.start)
	s.t.mu.Lock()
	if sp := &s.t.spans[s.id]; sp.end == 0 {
		sp.end = now
	}
	s.t.mu.Unlock()
}

// SpanCount returns how many spans have been recorded.
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SpanRecord is a read-only copy of one recorded span.
type SpanRecord struct {
	Name string
	// Parent is the enclosing span's name, empty for a root span.
	Parent string
	// Start is the offset from the trace start; Duration runs to now for
	// a span still open.
	Start, Duration time.Duration
	Attrs           []Attr
}

// Records returns a copy of every span in open order, for callers that
// report on a finished trace in-process (shoal-build -v) instead of
// exporting it. Nil-safe.
func (t *Trace) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	for i, sp := range t.spans {
		end := sp.end
		if end == 0 {
			end = now
		}
		out[i] = SpanRecord{Name: sp.name, Start: sp.start, Duration: end - sp.start, Attrs: slices.Clone(sp.attrs)}
		if sp.parent >= 0 {
			out[i].Parent = t.spans[sp.parent].name
		}
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" complete event, ts/dur in
// microseconds). Args always carries the span's parent name so the
// hierarchy survives tools that ignore lane nesting.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"otherData,omitempty"`
}

// WriteChrome exports the trace as Chrome trace-event JSON. Spans still
// open are emitted with their duration up to now.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
	now := time.Since(t.start)
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, sp := range t.spans {
		end := sp.end
		if end == 0 {
			end = now
		}
		ev := chromeEvent{
			Name: sp.name,
			Ph:   "X",
			Ts:   float64(sp.start) / 1e3,
			Dur:  float64(end-sp.start) / 1e3,
			Pid:  1,
			Tid:  sp.lane + 1,
		}
		if len(sp.attrs) > 0 || sp.parent >= 0 {
			ev.Args = make(map[string]any, len(sp.attrs)+1)
			if sp.parent >= 0 {
				ev.Args["parent"] = t.spans[sp.parent].name
			}
			for _, a := range sp.attrs {
				ev.Args[a.Key] = jsonSafe(a.Value)
			}
		}
		events = append(events, ev)
	}
	name := t.name
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{
		TraceEvents: events,
		Metadata:    map[string]any{"trace": name},
	})
}

// jsonSafe maps attr values json.Marshal rejects — NaN and the
// infinities (e.g. a sentinel -Inf similarity) — to their string form,
// so one such attr cannot abort the whole export.
func jsonSafe(v any) any {
	if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return v
}

// spanCtxKey keys the current span in a context.
type spanCtxKey struct{}

// ContextWithSpan installs s as the context's current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the context's current span, or nil — and nil
// composes: every Span method no-ops on nil, so callers never branch.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
