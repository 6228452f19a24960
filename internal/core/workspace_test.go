package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"shoal/internal/bipartite"
	"shoal/internal/model"
	"shoal/internal/synth"
)

// scribble overwrites every array reachable from v — every slice to its
// full capacity, through pointers, structs, arrays and slices of slices —
// with garbage that looks like data: small ids, epochs and counts 1..7,
// similarities in [0.25, 0.75], alternating flags. A stage that reads a
// recycled element before writing it reads that garbage; small values
// collide with the ids and epochs a fresh array would start from, and
// similarities in the clustering range get selected. Strings, maps,
// interfaces and funcs are left alone.
func scribble(v any) {
	n := 0
	scribbleValue(reflect.ValueOf(v), &n, map[uintptr]bool{})
}

func scribbleValue(v reflect.Value, n *int, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(*n%3 != 0)
		*n++
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n%7 + 1))
		*n++
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(*n%7 + 1))
		*n++
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.25 + 0.125*float64(*n%5))
		*n++
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		scribbleValue(v.Elem(), n, seen)
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Field(i)
			// Unexported fields: reach them through their address.
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			scribbleValue(f, n, seen)
		}
	case reflect.Array:
		for i := range v.Len() {
			scribbleValue(v.Index(i), n, seen)
		}
	case reflect.Slice:
		full := v.Slice3(0, v.Cap(), v.Cap())
		for i := range full.Len() {
			scribbleValue(full.Index(i), n, seen)
		}
	}
}

// digestOf is buildDigest's hash of what a build serves, plus its
// dendrogram and clustering rounds.
func digestOf(t *testing.T, b *Build) string {
	t.Helper()
	h := sha256.New()
	buildDigest(t, h, b)
	// %v spells a float64 as its shortest exact decimal.
	fmt.Fprintf(h, "%v %v", b.Dendrogram.Merges, b.Rounds)
	return hex.EncodeToString(h.Sum(nil))
}

// churnDays spreads the c30 corpus's clicks over days the way a live
// window moves: six clicks in seven recur every day and the seventh lives
// on one day each, so most slides patch the entity graph. Day surge adds
// one click on every item from a query it does not usually see, which
// dirties every entity and forces the dense fallback (again when the
// surge leaves the window); surge >= days adds none.
func churnDays(c *model.Corpus, days, surge int) [][]model.ClickEvent {
	out := make([][]model.ClickEvent, days)
	for d := range out {
		for i, ev := range c.Clicks {
			if i%7 == 0 && (i/7)%days != d {
				continue
			}
			ev.Day = int32(d)
			out[d] = append(out[d], ev)
		}
	}
	for it := range c.Items {
		if surge >= days {
			break // no surge
		}
		q := model.QueryID(it * 7919 % len(c.Queries))
		out[surge] = append(out[surge], model.ClickEvent{Query: q, Item: model.ItemID(it), Day: int32(surge), Count: 1})
	}
	return out
}

// TestRecycledScratchNeverReachesOutput scribbles over every workspace a
// daily pipeline keeps before each of 14 slides of the c30 corpus, and
// holds every slide, byte for byte, to a one-shot build of the same
// window over fresh workspaces (sharing only the corpus-static entities
// and embeddings). The slides patch, fall back dense on a surge and
// recover from a rebuild canceled inside parallel-hac. After each slide
// the previous published build must still digest as it did when it was
// published: nothing it references was recycled.
func TestRecycledScratchNeverReachesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("14 slides of the c30 corpus and their one-shot twins")
	}
	ctx := context.Background()
	corpus, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const days, surge, canceled = 14, 9, 11
	byDay := churnDays(corpus, days, surge)
	cfg := testConfig()
	p, err := NewDailyPipeline(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev *Build
	var prevDigest string
	kinds := map[string]int{}
	hacCanceled, failed := false, false
	check := func(d int, b *Build) {
		t.Helper()
		window := bipartite.New(cfg.WindowDays)
		for fd := 0; fd <= d; fd++ {
			if err := window.AddAll(byDay[fd]); err != nil {
				t.Fatal(err)
			}
		}
		static := &rebuildCache{entities: p.cache.entities, embeddings: p.cache.embeddings, haveEmb: p.cache.haveEmb}
		fresh, err := run(ctx, corpus, window, cfg, static, nil)
		if err != nil {
			t.Fatalf("day %d: one-shot build: %v", d, err)
		}
		got := digestOf(t, b)
		if got != digestOf(t, fresh) {
			t.Fatalf("day %d (%+v): the slide over scribbled workspaces differs from a one-shot build", d, *b.Delta)
		}
		if prev != nil && digestOf(t, prev) != prevDigest {
			t.Fatalf("day %d: the build published the day before changed after this slide", d)
		}
		prev, prevDigest = b, got
	}
	for d := range byDay {
		if err := p.IngestDay(byDay[d]); err != nil {
			t.Fatal(err)
		}
		if d == canceled {
			hacCanceled, failed = cancelInsideClustering(t, p, prev)
		}
		if p.cache.ws != nil {
			scribble(p.cache.ws)
		}
		b, err := p.RebuildContext(ctx)
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		kind := "patch"
		if b.Delta.DenseFallback {
			kind = b.Delta.DenseFallbackReason
		}
		kinds[kind]++
		check(d, b)
	}
	if kinds["patch"] == 0 || kinds["dirty-pairs"] == 0 || (failed && kinds["no-state"] < 2) {
		t.Fatalf("slides by kind %v: want patches, a dirty-pairs fallback and a no-state rebuild after a canceled one", kinds)
	}
	if !hacCanceled {
		t.Log("no canceled rebuild landed inside parallel-hac; the cancellation was checked elsewhere")
	}
}

// cancelInsideClustering fails rebuilds of p's current window under
// contexts canceled halfway through where parallel-hac ran in the last
// successful build, until one fails inside that stage (or a few tries
// pass). A rebuild that beats the timer is a valid build of the window
// and must publish; it re-times the stage for the next try. It reports
// whether a rebuild failed inside parallel-hac and whether any failed.
func cancelInsideClustering(t *testing.T, p *DailyPipeline, last *Build) (inside, failed bool) {
	t.Helper()
	timing := func(b *Build) time.Duration {
		for _, st := range b.StageTimings {
			if st.Stage == "parallel-hac" {
				return st.Start + st.Elapsed/2
			}
		}
		t.Fatal("no parallel-hac stage timing")
		return 0
	}
	at := timing(last)
	for try := 0; try < 8; try++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(at, cancel)
		b, err := p.RebuildContext(ctx)
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			if p.Last() != b {
				t.Fatal("a rebuild that succeeded did not publish")
			}
			at = timing(b)
		case p.cache.ws != nil || p.cache.graphState != nil:
			t.Fatalf("a rebuild that failed (%v) kept its workspaces or its graph state", err)
		case strings.Contains(err.Error(), "stage parallel-hac:"):
			return true, true
		case strings.Contains(err.Error(), "stage entity-graph:") || strings.Contains(err.Error(), "stage entities:"):
			failed = true
			at += at / 2 // canceled early: aim later
		default:
			failed = true
			at -= at / 4 // canceled late: aim earlier
		}
	}
	return false, failed
}

// TestTwoPipelinesSlideConcurrently runs two daily pipelines over one
// corpus on two goroutines, slide for slide: each owns its workspaces, so
// under -race neither may touch the other's, and both must publish the
// same builds as one pipeline alone.
func TestTwoPipelinesSlideConcurrently(t *testing.T) {
	corpus, byDay := dayCorpus(t)
	cfg := testConfig()
	var pipes [2]*DailyPipeline
	for i := range pipes {
		p, err := NewDailyPipeline(corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pipes[i] = p
	}
	for d := range byDay {
		var builds [2]*Build
		var errs [2]error
		var wg sync.WaitGroup
		for i, p := range pipes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if errs[i] = p.IngestDay(byDay[d]); errs[i] == nil {
					builds[i], _ = p.Rebuild()
				}
			}()
		}
		wg.Wait()
		for i := range pipes {
			if errs[i] != nil || builds[i] == nil {
				t.Fatalf("day %d: pipeline %d: %v", d, i, errs[i])
			}
		}
		if a, b := digestOf(t, builds[0]), digestOf(t, builds[1]); a != b {
			t.Fatalf("day %d: two pipelines sliding side by side published different builds", d)
		}
	}
}
