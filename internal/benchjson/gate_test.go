package benchjson

import (
	"strings"
	"testing"
)

func TestRegressions(t *testing.T) {
	oldRes := []Result{
		{Name: "a", NsPerOp: 1000},
		{Name: "b", NsPerOp: 1000},
		{Name: "c", NsPerOp: 1000},
		{Name: "gone", NsPerOp: 1000},
	}
	newRes := []Result{
		{Name: "a", NsPerOp: 1249}, // +24.9%: inside the gate
		{Name: "b", NsPerOp: 1300}, // +30%: regression
		{Name: "c", NsPerOp: 700},  // improvement
		{Name: "new", NsPerOp: 1},  // not in old: ignored
	}
	got := Regressions(oldRes, newRes, 0.25)
	if len(got) != 1 || !strings.HasPrefix(got[0], "b:") {
		t.Fatalf("Regressions = %v, want exactly one entry for b", got)
	}
	if got := Regressions(oldRes, oldRes, 0.25); len(got) != 0 {
		t.Fatalf("self-comparison regressed: %v", got)
	}
	// Tightening the threshold to zero flags any growth at all.
	if got := Regressions(oldRes, newRes, 0); len(got) != 2 {
		t.Fatalf("zero-threshold gate = %v, want a and b", got)
	}
}

// TestObsOverheadCeiling pins the observability budget: an
// obs-overhead-vs-bare entry at or above ObsOverheadCeiling fails
// outright — even when the old file never recorded the name — while a
// sub-ceiling ratio passes whatever the old file recorded. The ceiling
// is the documented 1.10 at every threshold up to the default; only a
// wider runner-side threshold widens it to 1 + threshold.
func TestObsOverheadCeiling(t *testing.T) {
	var oldRes []Result // ratio brand new in this trajectory
	got := Regressions(oldRes, []Result{{Name: "obs-overhead-vs-bare", NsPerOp: 1.03}}, DefaultThreshold)
	if len(got) != 0 {
		t.Fatalf("near-free instrumentation gated: %v", got)
	}
	// The committed-trajectory gate runs at the default threshold, and
	// there the ceiling is 1.10, not 1 + 0.25: a 1.12 is reported.
	got = Regressions(oldRes, []Result{{Name: "obs-overhead-vs-bare", NsPerOp: 1.12}}, DefaultThreshold)
	if len(got) != 1 || !strings.Contains(got[0], ">= 1.10") {
		t.Fatalf("1.12 at the default threshold = %v, want one entry against the 1.10 ceiling", got)
	}
	got = Regressions(oldRes, []Result{{Name: "obs-overhead-vs-bare", NsPerOp: 1.12}}, 0.5)
	if len(got) != 0 {
		t.Fatalf("1.12 at the runner-side threshold gated: %v", got)
	}
	got = Regressions(oldRes, []Result{{Name: "obs-overhead-vs-bare", NsPerOp: 1.10}}, 0.05)
	if len(got) != 1 || !strings.Contains(got[0], "hot-path budget") {
		t.Fatalf("at-ceiling overhead = %v, want one hard-gate entry", got)
	}
	// Runner-side slack: a 50% threshold widens the ceiling to 1.5, so a
	// noisy 1.2 passes while a middleware gone quadratic still fails.
	got = Regressions(oldRes, []Result{
		{Name: "obs-overhead-vs-bare", NsPerOp: 1.2},
	}, 0.5)
	if len(got) != 0 {
		t.Fatalf("wide-threshold gate = %v, want none", got)
	}
	got = Regressions(oldRes, []Result{{Name: "obs-overhead-vs-bare", NsPerOp: 1.62}}, 0.5)
	if len(got) != 1 || !strings.Contains(got[0], "hot-path budget") {
		t.Fatalf("wide-threshold blown budget = %v, want one hard-gate entry", got)
	}
	// Under the ceiling, the relative trajectory comparison does not apply.
	got = Regressions(
		[]Result{{Name: "obs-overhead-vs-bare", NsPerOp: 1.00}},
		[]Result{{Name: "obs-overhead-vs-bare", NsPerOp: 1.08}}, 0.05)
	if len(got) != 0 {
		t.Fatalf("relative gate applied to a sub-ceiling ratio: %v", got)
	}
}

// TestIncrementalVsFullCeiling pins the delta-rebuild margin: an
// incremental-vs-full entry at or above IncrementalVsFullCeiling fails
// outright — even when the old file never recorded the name — and,
// unlike every other ceiling, this one does NOT widen with the gate's
// relative threshold: the ratio's whole budget sits below 1.0, so the
// line holds even on wide-tolerance runner-side gates.
func TestIncrementalVsFullCeiling(t *testing.T) {
	var oldRes []Result // ratio brand new in this trajectory
	got := Regressions(oldRes, []Result{{Name: "incremental-vs-full", NsPerOp: 0.71}}, 0.25)
	if len(got) != 0 {
		t.Fatalf("reference-shape margin gated: %v", got)
	}
	got = Regressions(oldRes, []Result{{Name: "incremental-vs-full", NsPerOp: IncrementalVsFullCeiling}}, 0.25)
	if len(got) != 1 || !strings.Contains(got[0], "lost its margin") {
		t.Fatalf("at-ceiling ratio = %v, want one hard-gate entry", got)
	}
	// The runner-side 50% threshold widens the > 1 ceiling to 1.5 —
	// but not this one: the ceiling still fails at any tolerance.
	got = Regressions(oldRes, []Result{{Name: "incremental-vs-full", NsPerOp: IncrementalVsFullCeiling}}, 0.5)
	if len(got) != 1 || !strings.Contains(got[0], "lost its margin") {
		t.Fatalf("wide-threshold at-ceiling ratio = %v, want one hard-gate entry", got)
	}
	// The ceiling is the only verdict. A faster from-scratch build moves
	// the ratio 0.56 -> 0.71 (+27%, BENCH_21 -> BENCH_22) with the delta
	// path no slower: under the line, so it passes, and the numerator's
	// own relative gate is what catches a slower incremental-rebuild.
	// 0.56 -> 0.81 fails, on the ceiling.
	oldRes = []Result{{Name: "incremental-vs-full", NsPerOp: 0.56}, {Name: "incremental-rebuild", NsPerOp: 17e6}}
	got = Regressions(oldRes, []Result{
		{Name: "incremental-vs-full", NsPerOp: 0.71},
		{Name: "incremental-rebuild", NsPerOp: 17e6},
	}, 0.2)
	if len(got) != 0 {
		t.Fatalf("relative gate applied to a sub-ceiling ratio: %v", got)
	}
	got = Regressions(oldRes, []Result{
		{Name: "incremental-vs-full", NsPerOp: 0.81},
		{Name: "incremental-rebuild", NsPerOp: 22e6},
	}, 0.25)
	if len(got) != 2 || !strings.Contains(got[0], "ns/op") || !strings.Contains(got[1], "lost its margin") {
		t.Fatalf("0.56 -> 0.81 with a slower numerator = %v, want the numerator's trajectory entry and the ceiling entry", got)
	}
}

// The committed-trajectory comparison itself (BENCH_3.json vs
// BENCH_4.json at 25%) lives in CI as the dedicated bench-gate step
// (`shoal-bench -benchgate`), so it is deliberately not duplicated
// here — one check, one threshold, one report. A second runner-side
// step re-runs the suite fresh and gates it against the committed file
// at a wider 50% tolerance, catching machine-visible regressions the
// committed trajectory misses.
