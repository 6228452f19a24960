package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"shoal/internal/core"
)

// The burst loop and the calibration kernel must not allocate:
// serve_alloc_b_per_req then counts the program's bytes only, and the
// kernel's speed does not depend on the program's heap.
func TestBurstLoopAndKernelDoNotAllocate(t *testing.T) {
	var pool []request
	for _, path := range []string{"/api/search?k=5&q=beach", "/api/topics/1", "/api/categories/2/related"} {
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, request{req: req, class: reqClass(len(pool))})
	}
	body := []byte(`[{"id":1}]`)
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	})
	c := newClient(pool)
	idx := make([]int32, 300)
	for i := range idx {
		idx[i] = int32(i % len(pool))
	}
	lat := make([]int32, len(idx))
	scratch := make([]int32, 0, len(idx))
	if n := testing.AllocsPerRun(20, func() {
		if failed := c.burst(stub, idx, lat); failed != 0 {
			t.Errorf("stub handler: %d failures", failed)
		}
		c.classify(scratch, idx, lat, isSearch)
	}); n != 0 {
		t.Errorf("burst loop allocates %.1f times per burst", n)
	}
	k := newKernel()
	if n := testing.AllocsPerRun(5, func() { k.run() }); n != 0 {
		t.Errorf("calibration kernel allocates %.1f times per run", n)
	}
}

func TestBurstCountsNon200(t *testing.T) {
	req, err := http.NewRequest(http.MethodGet, "/api/topics/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient([]request{{req: req, class: classTopic}})
	notFound := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNotFound) })
	if failed := c.burst(notFound, []int32{0, 0, 0}, make([]int32, 3)); failed != 3 {
		t.Errorf("burst counted %d failures of 3", failed)
	}
}

func TestCalibrateCancelsMachineSpeed(t *testing.T) {
	// Ticks 0-14 on a machine at reference speed, ticks 15-29 on one
	// twice as slow: a sample that takes twice as long next to a kernel
	// that takes twice as long is the same work.
	var raw, kern []float64
	var tickOf []int
	for tick := 0; tick < 30; tick++ {
		speed := 1.0
		if tick >= 15 {
			speed = 2.0
		}
		raw = append(raw, 100*speed)
		tickOf = append(tickOf, tick)
		for i := 0; i < kernelRuns; i++ {
			kern = append(kern, calRefMs*speed)
		}
	}
	cal := calibrate(raw, tickOf, kern)
	for _, tick := range []int{0, 5, 10, 20, 25, 29} {
		if cal[tick] < 99.9 || cal[tick] > 100.1 {
			t.Errorf("tick %d: calibrated %.2f, want 100", tick, cal[tick])
		}
	}
}

func TestTypicalIsMeanOfQuietHalf(t *testing.T) {
	// Sorted: 1..10 and a neighbour's 500; the band is ranks 1-4.
	xs := []float64{500, 9, 3, 1, 7, 5, 2, 10, 4, 8, 6}
	if got := typical(xs); got != (2+3+4+5)/4.0 {
		t.Errorf("typical = %v, want 3.5", got)
	}
	if got := typical([]float64{7}); got != 7 {
		t.Errorf("typical of one sample = %v, want 7", got)
	}
}

// smoke is a tiny catalog on which the whole run takes a second or two.
var smoke = workload{name: "smoke", scenarios: 4, explore: 0.03, repeat: 0.75, setups: 2, loadedSlides: 2, burst: 300, bursts: 2}

// benchmarkSpec is the part of BENCHMARK.json the program must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultOf runs opt through execute and decodes the result line.
func resultOf(t *testing.T, opt options) (code int, res struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}, log string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code = execute(context.Background(), opt, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v\n%s", err, stderr.String())
	}
	return code, res, stderr.String()
}

func TestSmokeRunMatchesBenchmarkSpec(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		if !slices.ContainsFunc(spec.Workloads, func(s struct{ Name string }) bool { return s.Name == w.name }) {
			t.Errorf("BENCHMARK.json does not list workload %q", w.name)
		}
	}
	if len(spec.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %v", len(spec.Workloads), names)
	}

	code, res, log := resultOf(t, options{w: smoke, seed: 1, seconds: 0.01})
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("untraced smoke run: exit %d, correct=%v, failed=%d of %d\n%s", code, res.Correct, res.Failed, res.Attempted, log)
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("untraced run printed %d metrics, BENCHMARK.json lists %d end-to-end", len(res.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s [%s]: printed %+v", m.Name, m.Unit, got)
		}
		if got.Value <= 0 {
			t.Errorf("end-to-end metric %s is %v; gated metrics must never be 0", m.Name, got.Value)
		}
	}

	trace := filepath.Join(t.TempDir(), "trace.json")
	code, res, log = resultOf(t, options{w: smoke, seed: 1, seconds: 0.01, traced: true, traceOut: trace})
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("traced smoke run: exit %d, correct=%v, failed=%d\n%s", code, res.Correct, res.Failed, log)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run printed %d metrics, BENCHMARK.json lists %d per-layer", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s [%s]: printed %+v", m.Name, m.Unit, got)
		}
	}
	if cov := res.Metrics["trace.span_coverage"].Value; cov < 0.5 || cov > 1.5 {
		t.Errorf("layer spans cover %.2f of core.rebuild_ms", cov)
	}

	// The trace must load as Chrome trace-event JSON with one slide per
	// round and the layer spans beneath them.
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	count := map[string]int{}
	for _, ev := range chrome.TraceEvents {
		count[ev.Name]++
		if ev.Name == "entitygraph.build" && ev.Args["parent"] != "slide" && ev.Args["parent"] != "cold-build" {
			t.Errorf("entitygraph.build span has parent %v", ev.Args["parent"])
		}
	}
	rounds := int(res.Metrics["rounds"].Value)
	for name, extra := range map[string]int{
		"slide": 0, "bipartite.ingest": 0, "serve.swap": 0,
		// The cold build runs the rebuild layers once more.
		"cold-build": 1 - rounds, "entitygraph.build": 1, "phac.cluster": 1, "taxonomy.build": 1,
		"describe": 1, "catcorr.mine": 1, "searchindex.docs": 1, "searchindex.build": 1,
	} {
		if count[name] != rounds+extra {
			t.Errorf("trace has %d %q spans, want %d", count[name], name, rounds+extra)
		}
	}
}

func TestWrongBuildFailsTheRun(t *testing.T) {
	var first *core.Build
	stale := func(b *core.Build) *core.Build {
		if first == nil {
			first = b
		}
		return first
	}
	code, res, log := resultOf(t, options{w: smoke, seed: 2, seconds: 0.01, tamper: stale})
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("stale build kept serving: exit %d, correct=%v, failed=%d", code, res.Correct, res.Failed)
	}
	if !strings.Contains(log, "FAILED CHECK: serving taxonomy differs from a from-scratch build") {
		t.Errorf("failure not reported:\n%s", log)
	}
}
