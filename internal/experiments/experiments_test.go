package experiments

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"shoal/internal/phac"
	"shoal/internal/wgraph"
	"shoal/internal/wgraph/wgraphtest"
)

// The experiment functions are exercised at Small scale with one seed so
// the suite stays fast; shape assertions check the paper's qualitative
// claims rather than absolute numbers.

func TestE1PrecisionHigh(t *testing.T) {
	tab, err := E1Precision(Small, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // one seed + mean
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	prec := parsePct(t, tab.Rows[0][4])
	if prec < 0.90 {
		t.Fatalf("E1 precision %.3f below 0.90", prec)
	}
}

func TestE2ABTestPositiveLift(t *testing.T) {
	tab, err := E2ABTest(Small, 20_000, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	// Last row is the mean lift.
	mean := tab.Rows[len(tab.Rows)-1]
	lift := parsePct(t, mean[5])
	if lift <= 0 {
		t.Fatalf("E2 mean lift %.4f not positive", lift)
	}
}

func TestE3ModularityAboveThreshold(t *testing.T) {
	tab, err := E3Modularity(Small, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		q, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if q <= 0.3 {
			t.Fatalf("modularity %f not above 0.3 (paper claim)", q)
		}
	}
}

func TestE4ScalingRuns(t *testing.T) {
	tab, err := E4Scaling(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("rows = %d, want sequential + >=1 parallel", len(tab.Rows))
	}
	if tab.Rows[0][0] != "sequential-hac" {
		t.Fatalf("first row = %v, want sequential baseline", tab.Rows[0])
	}
}

func TestE5DiffusionMonotone(t *testing.T) {
	tab, err := E5Diffusion(Small, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// round1-selected must be non-increasing in r (paper claim), and
	// every r must form the r = 0 clusters.
	prev := int(^uint(0) >> 1)
	for _, row := range tab.Rows {
		if row[6] != "true" {
			t.Fatalf("r = %s forms other clusters than r = 0: %v", row[0], tab.Rows)
		}
		sel, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		if sel > prev {
			t.Fatalf("round1-selected increased with r: %v", tab.Rows)
		}
		prev = sel
	}
}

func TestE6AlphaSweep(t *testing.T) {
	tab, err := E6Alpha(Small, 1, []float64{0, 0.7, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// All NMI values must be valid numbers in [0,1].
	for _, row := range tab.Rows {
		nmi, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if nmi < 0 || nmi > 1 {
			t.Fatalf("NMI %f outside [0,1]", nmi)
		}
	}
}

func TestE7ThresholdMonotone(t *testing.T) {
	tab, err := E7CatCorr(Small, 1, []int{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	prev := int(^uint(0) >> 1)
	for _, row := range tab.Rows {
		kept, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		if kept > prev {
			t.Fatalf("pairs kept increased with threshold: %v", tab.Rows)
		}
		prev = kept
	}
}

func TestE8LinkageRows(t *testing.T) {
	tab, err := E8Linkage(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 linkages", len(tab.Rows))
	}
	names := map[string]bool{}
	for _, row := range tab.Rows {
		names[row[0]] = true
	}
	if !names["sqrt-size"] || !names["unweighted"] || !names["size-proportional"] {
		t.Fatalf("missing linkage rows: %v", names)
	}
}

func TestE9BSPIdentical(t *testing.T) {
	if _, err := E9BSP(Small, 1); err != nil {
		t.Fatal(err)
	}

	// The acceptance matrix of the vertex program: the max fold,
	// changed-only sends and vote-to-halt must keep it byte-identical to
	// phac.Diffuse at every diffusion depth, for every placement
	// (edge-balanced row ranges, so shard sizes are uneven) and under
	// every delivery disorder the barrier can inject. The threshold
	// leaves sub-threshold edges in the graphs: they carry messages but
	// never enter a vertex's state.
	graphs := []*wgraph.CSR{Figure3Graph()}
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		var edges []wgraph.Edge
		for i := 0; i < 280; i++ {
			u, v := int32(rng.IntN(80)), int32(rng.IntN(80))
			if i < 80 {
				u, v = int32(i), int32((i+1)%80) // a ring first, so no vertex is isolated
			}
			if u == v {
				continue
			}
			edges = append(edges, wgraph.Edge{U: u, V: v, W: 0.05 + 0.9*rng.Float64()})
		}
		graphs = append(graphs, wgraphtest.Build(t, 80, edges...))
	}
	const threshold = 0.2
	for gi, c := range graphs {
		for _, r := range []int{0, 1, 2, 3} {
			want, err := phac.Diffuse(c, r, threshold)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 3, 8} {
				for _, ch := range []chaos{
					{},
					{seed: uint64(gi + 1), shuffle: true},
					{seed: uint64(gi + 1), stall: true},
					{seed: uint64(gi + 1), shuffle: true, stall: true},
				} {
					got, computed, messages, err := diffuseBSP(c, r, threshold, edgeBalancedBounds(c, shards), ch)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("graph %d r=%d shards=%d chaos=%+v:\n%v\ndiffers from phac.Diffuse\n%v", gi, r, shards, ch, got, want)
					}
					// The protocol's cost: something is in flight whenever
					// r >= 1 (so shuffle and stall have envelopes to
					// permute, one shard included), the run quiesces by
					// superstep r, and changed-only sends stay under the
					// broadcast-everything bound r*2E — strictly once
					// r >= 2, since the endpoints of the globally best
					// edge never re-broadcast.
					bound := r * 2 * c.NumEdges()
					switch {
					case r == 0 && (len(computed) != 1 || messages != 0):
						t.Fatalf("graph %d r=0 shards=%d: %d supersteps, %d messages, want 1 and 0", gi, shards, len(computed), messages)
					case r >= 1 && messages == 0:
						t.Fatalf("graph %d r=%d shards=%d: no message sent", gi, r, shards)
					case len(computed) > r+1:
						t.Fatalf("graph %d r=%d shards=%d: %d supersteps, want <= %d", gi, r, shards, len(computed), r+1)
					case messages > bound || r >= 2 && messages == bound:
						t.Fatalf("graph %d r=%d shards=%d: %d messages against the broadcast bound %d", gi, r, shards, messages, bound)
					}
				}
			}
		}
	}

	// Vote-to-halt and reactivation on the path 0-1-2-3-4: vertex 1 learns
	// nothing at superstep 1 and votes to halt, (3,4) reaches vertex 2
	// meanwhile, and its re-broadcast wakes vertex 1 at superstep 2.
	path := wgraphtest.Build(t, 5,
		wgraph.Edge{U: 0, V: 1, W: 0.3}, wgraph.Edge{U: 1, V: 2, W: 0.5},
		wgraph.Edge{U: 2, V: 3, W: 0.4}, wgraph.Edge{U: 3, V: 4, W: 0.9})
	for _, shards := range []int{1, 2, 5} {
		sel, computed, messages, err := diffuseBSP(path, 3, threshold, edgeBalancedBounds(path, shards), chaos{})
		if err != nil {
			t.Fatal(err)
		}
		if want := []phac.Edge{{U: 3, V: 4, Sim: 0.9}}; !reflect.DeepEqual(sel, want) {
			t.Fatalf("path shards=%d: selected %v, want %v", shards, sel, want)
		}
		if want := []int{5, 5, 4, 3}; !reflect.DeepEqual(computed, want) || messages != 13 {
			t.Fatalf("path shards=%d: computed %v with %d messages, want %v with 13", shards, computed, messages, want)
		}
	}
}

func TestF3Table(t *testing.T) {
	tab, err := F3LocalMaxima()
	if err != nil {
		t.Fatal(err)
	}
	// Row r=2 must list exactly AB and EF.
	var r2 string
	for _, row := range tab.Rows {
		if row[0] == "2" {
			r2 = row[1]
		}
	}
	if !strings.Contains(r2, "AB@0.90") || !strings.Contains(r2, "EF@0.91") {
		t.Fatalf("r=2 selection = %q, want AB@0.90 and EF@0.91", r2)
	}
	if strings.Count(r2, "@") != 2 {
		t.Fatalf("r=2 selected extra edges: %q", r2)
	}
}

func TestE10BaselineComparison(t *testing.T) {
	tab, err := E10Baseline(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 methods", len(tab.Rows))
	}
	// The paper's qualitative claim: on items whose titles carry no
	// intent signal, query coalition must beat embedding-only
	// clustering.
	shoalAmb, err := strconv.ParseFloat(tab.Rows[0][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	kmAmb, err := strconv.ParseFloat(tab.Rows[1][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	if shoalAmb <= kmAmb {
		t.Fatalf("SHOAL ambiguous purity %.3f not above kmeans baseline %.3f", shoalAmb, kmAmb)
	}
}

func TestE11DailyRebuild(t *testing.T) {
	tab, err := E11Daily(Small, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // days 6..9
		t.Fatalf("rows = %d, want 4 rebuild days", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		p := parsePct(t, row[3])
		if p < 0.9 {
			t.Fatalf("day %s precision %.3f below 0.9", row[0], p)
		}
		if i > 0 {
			s, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				t.Fatal(err)
			}
			if s < 0.4 || s > 1 {
				t.Fatalf("stability %f outside sane range", s)
			}
		}
	}
}

func TestRunnerAllIDs(t *testing.T) {
	r := DefaultRunner(Small)
	ids := r.IDs()
	if len(ids) != 12 {
		t.Fatalf("IDs = %v, want 12 experiments", ids)
	}
	if _, err := r.Run("E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Smoke-run the cheapest one through the Runner.
	tab, err := r.Run("F3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "F3") {
		t.Fatal("render missing experiment id")
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "t", PaperClaim: "c",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"12345", "6"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== X: t ==", "paper: c", "12345", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
	}{{"small", Small}, {"Medium", Medium}, {"LARGE", Large}} {
		got, err := ParseScale(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseScale(%q) = %v,%v", tc.in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q: %v", s, err)
	}
	return v / 100
}
