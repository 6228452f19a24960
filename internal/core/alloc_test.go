//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"shoal/internal/synth"
)

// slideAllocCeiling bounds the bytes one steady slide of the c30 corpus
// allocates at GOMAXPROCS=2, about 10 % above the 2.36 MB it measured on
// amd64 when the stages' scratch moved into the pipeline's workspaces (it
// was 8.32 MB before; 386's smaller words read 1.99 MB).
const slideAllocCeiling = 2_600_000

// TestSlideAllocBytes holds a steady slide — one day ingested, the
// entity graph patched, clustering and the tail rerun — to a byte
// ceiling: what it allocates is what it publishes, plus the slide's few
// scratch arrays that outgrow their workspace. The race detector's
// instrumentation allocates on its own, so the test runs without it.
func TestSlideAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("seven days of the c30 corpus")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	corpus, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const days, warm = 14, 10
	byDay := churnDays(corpus, days, days) // no surge: every slide patches
	p, err := NewDailyPipeline(corpus, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for d := range byDay {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := p.IngestDay(byDay[d]); err != nil {
			t.Fatal(err)
		}
		b, err := p.RebuildContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d < warm {
			continue
		}
		if b.Delta.DenseFallback {
			t.Fatalf("day %d: delta %+v, want a patch", d, *b.Delta)
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	if perSlide := total / (days - warm); perSlide > slideAllocCeiling {
		t.Errorf("a steady c30 slide allocated %d bytes, want <= %d", perSlide, slideAllocCeiling)
	}
}
