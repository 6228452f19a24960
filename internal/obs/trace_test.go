package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

func TestTraceHierarchy(t *testing.T) {
	tr := NewTrace("build")
	a := tr.StartSpan("stage-a")
	r0 := a.Child("round-0")
	r0.SetAttr("aliveRows", 10)
	r0.End()
	r1 := a.Child("round-1")
	r1.SetAttr("aliveRows", int64(4))
	r1.SetAttr("bestSim", 0.5)
	r1.End()
	a.End()
	b := tr.StartSpan("stage-b")
	b.End()
	if tr.SpanCount() != 4 {
		t.Fatalf("span count = %d, want 4", tr.SpanCount())
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(f.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(f.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range f.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Dur < 0 || ev.Ts < 0 {
			t.Fatalf("malformed event %+v", ev)
		}
		byName[ev.Name] = i
	}
	stageA, round0 := f.TraceEvents[byName["stage-a"]], f.TraceEvents[byName["round-0"]]
	stageB := f.TraceEvents[byName["stage-b"]]
	// Children share the parent's lane and nest within its window.
	if round0.Tid != stageA.Tid {
		t.Fatalf("child lane %d != parent lane %d", round0.Tid, stageA.Tid)
	}
	if stageB.Tid == stageA.Tid {
		t.Fatal("concurrent roots share a lane")
	}
	if round0.Ts < stageA.Ts || round0.Ts+round0.Dur > stageA.Ts+stageA.Dur+1 {
		t.Fatalf("child [%f,%f] escapes parent [%f,%f]",
			round0.Ts, round0.Ts+round0.Dur, stageA.Ts, stageA.Ts+stageA.Dur)
	}
	if round0.Args["parent"] != "stage-a" {
		t.Fatalf("round-0 parent arg = %v", round0.Args["parent"])
	}
	if round0.Args["aliveRows"] != float64(10) {
		t.Fatalf("round-0 aliveRows = %v", round0.Args["aliveRows"])
	}
	r1ev := f.TraceEvents[byName["round-1"]]
	if r1ev.Args["bestSim"] != 0.5 {
		t.Fatalf("round-1 bestSim = %v", r1ev.Args["bestSim"])
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("nil trace produced a span")
	}
	// All of these must be no-ops, not panics.
	sp.SetAttr("k", 1)
	child := sp.Child("y")
	child.End()
	sp.End()
	if err := tr.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if tr.SpanCount() != 0 {
		t.Fatal("nil trace has spans")
	}

	ctx := context.Background()
	if got := SpanFromContext(ctx); got != nil {
		t.Fatal("empty context produced a span")
	}
	real := NewTrace("t").StartSpan("s")
	ctx = ContextWithSpan(ctx, real)
	if got := SpanFromContext(ctx); got != real {
		t.Fatal("context round-trip lost the span")
	}
}

func TestTraceRecords(t *testing.T) {
	var none *Trace
	if none.Records() != nil {
		t.Fatal("nil trace returned records")
	}
	tr := NewTrace("build")
	a := tr.StartSpan("stage-a")
	c := a.Child("docs")
	c.SetAttr("tokens", 7)
	c.End()
	open := a.Child("still-open")
	a.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0].Name != "stage-a" || recs[0].Parent != "" {
		t.Fatalf("root record = %+v", recs[0])
	}
	if recs[1].Name != "docs" || recs[1].Parent != "stage-a" ||
		len(recs[1].Attrs) != 1 || recs[1].Attrs[0] != (Attr{Key: "tokens", Value: 7}) {
		t.Fatalf("child record = %+v", recs[1])
	}
	if recs[2].Duration < 0 || recs[1].Start < recs[0].Start {
		t.Fatalf("bad times: %+v", recs)
	}
	// Records are copies: later attrs do not show through.
	open.SetAttr("late", 1)
	if len(recs[2].Attrs) != 0 {
		t.Fatal("record aliases the trace's attribute storage")
	}
}
