package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"shoal/internal/describe"
	"shoal/internal/taxonomy"
	"shoal/internal/textutil"
)

// searchDocsOracle is the reference SearchDocs is held equal to: the
// same assembly order and cap, with every string tokenized on the spot —
// the description queries from Topic.DescQueries, not from the ids the
// product reads.
func searchDocsOracle(b *Build, tokenCap int) [][]string {
	appendCapped := func(doc []string, tokens []string) []string {
		if room := tokenCap - len(doc); room < len(tokens) {
			if room <= 0 {
				return doc
			}
			tokens = tokens[:room]
		}
		return append(doc, tokens...)
	}
	docs := make([][]string, len(b.Taxonomy.Topics))
	for i := range b.Taxonomy.Topics {
		t := &b.Taxonomy.Topics[i]
		var doc []string
		for _, q := range t.DescQueries {
			doc = appendCapped(doc, textutil.TokenizeFiltered(q))
		}
		for _, c := range t.Categories {
			doc = appendCapped(doc, textutil.Tokenize(b.Corpus.Categories[c].Name))
		}
		for _, e := range t.Entities {
			for _, q := range b.QuerySets[e] {
				doc = appendCapped(doc, textutil.TokenizeFiltered(b.Corpus.Queries[q].Text))
			}
		}
		for _, it := range t.Items {
			doc = appendCapped(doc, textutil.Tokenize(b.Corpus.Items[it].Title))
		}
		docs[i] = doc
	}
	return docs
}

func TestSearchDocsMatchOracle(t *testing.T) {
	corpus := smallCorpus(t)
	cfg := testConfig()
	cfg.TrainEmbeddings = false
	b, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Assembly splits the topics into GOMAXPROCS ranges.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		for _, tokenCap := range []int{1, 7, 256} {
			got, want := b.SearchDocs(tokenCap), searchDocsOracle(b, tokenCap)
			if len(got) != len(want) {
				t.Fatalf("GOMAXPROCS=%d cap %d: %d docs, want %d", procs, tokenCap, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("GOMAXPROCS=%d cap %d topic %d: doc = %q, want %q", procs, tokenCap, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearcherIDsMatchesStrings holds the search-index stage's searcher —
// id documents in the text plane's vocabulary, indexed by
// NewSearcherIDs — to NewSearcher over the same documents spelled as
// strings and interned afresh: same hits, same score bits, for every
// corpus query, titles, garbage, stopword-only and corpus-unknown
// strings.
func TestSearcherIDsMatchesStrings(t *testing.T) {
	corpus := smallCorpus(t)
	cfg := testConfig()
	cfg.TrainEmbeddings = false
	b, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plane := corpus.Text().Vocab()
	planeSize := plane.Size()
	probes := []string{"", "for the", "of and THE", "zzzz qqqq", "spf 50 2024", "防晒霜 spf50",
		"a phrase for the corpus-unknown", "Phrase", "unknown beach"}
	for i := range corpus.Queries {
		probes = append(probes, corpus.Queries[i].Text, "the "+corpus.Queries[i].Text)
	}
	for i := 0; i < len(corpus.Items); i += 7 {
		probes = append(probes, corpus.Items[i].Title)
	}
	ids, err := taxonomy.NewSearcherIDs(ctx, b.Taxonomy, b.SearchDocIDs(cfg.SearchDocTokenCap), plane)
	if err != nil {
		t.Fatal(err)
	}
	strs, err := taxonomy.NewSearcher(ctx, b.Taxonomy, b.SearchDocs(cfg.SearchDocTokenCap))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, p := range probes {
		for _, k := range []int{1, 5, 100} {
			got, want := ids.Search(p, k), strs.Search(p, k)
			if len(got) != len(want) {
				t.Fatalf("Search(%q, %d): %d hits, string-built searcher %d", p, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Topic != want[i].Topic || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("Search(%q, %d)[%d] = %+v, string-built searcher %+v", p, k, i, got[i], want[i])
				}
			}
			hits += len(got)
		}
	}
	if hits == 0 {
		t.Fatal("no probe matched anything")
	}
	if plane.Size() != planeSize {
		t.Fatalf("the text plane's vocabulary grew from %d to %d terms", planeSize, plane.Size())
	}
}

// Allocation allowances of the slide's tail per worker beyond the first.
// For each loop it forks: what par.Run allocates (two objects per loop
// at any width above 1 and one closure per extra range, so 2+1 bounds it
// per extra worker, and equals it at width 2) plus the extra range's
// goroutine, which allocates a descriptor when the runtime has no free
// one (it often has none under -race). In Describe, also each extra
// range's own state — a bm25 Scorer with its scratch and hit buffer,
// its share of the index's count arrays and its walk callbacks, its
// ranking buffer — at most describeRangeAllocs objects; the candidate
// arrays are the workspace's. Describe forks describeForks loops (the
// index's count and fill, the candidates' count and fill, scoring and
// ranking); the search index forks two (its count and fill), and each
// extra range adds its count arrays and walk callbacks.
const (
	forkAllocs            = 2 + 1 + 1
	describeForks         = 6
	describeRangeAllocs   = 26
	searchIndexForks      = 2
	searchIndexRangeAlloc = 5
)

// mallocsPerRun is testing.AllocsPerRun at the current GOMAXPROCS, which
// AllocsPerRun pins to 1: heap objects per call of f, after one warm-up
// call, as the least of three averages over runs calls — whatever else
// the process allocates meanwhile (the runtime's own background
// allocations, which a single window catches now and then) only adds.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	least := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return least
}

// TestSlideTailDoesNoTextWork is the regression lock on the text plane
// and the tail's workspaces: with the plane warm, describe through a
// warm workspace and the streamed search-index stage allocate a handful
// of arrays per call, not per token, per document or per topic-candidate
// pair (the string-tokenizing implementations took 15 197 and 23 866
// allocations on this corpus, and describe over fresh arrays 65). That
// holds at width 1; at widths 2, 3 and 7 each worker beyond the first
// may add the fixed allowance above.
func TestSlideTailDoesNoTextWork(t *testing.T) {
	corpus := smallCorpus(t)
	cfg := testConfig()
	cfg.TrainEmbeddings = false
	b, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ws describe.Workspace
	describeOnce := func() {
		if _, err := ws.Describe(ctx, b.Taxonomy, corpus, b.Clicks, cfg.Describe); err != nil {
			t.Fatal(err)
		}
	}
	indexOnce := func() {
		if _, err := b.searchIndex(ctx, cfg.SearchDocTokenCap); err != nil {
			t.Fatal(err)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		extra := float64(procs - 1)
		if allocs, want := mallocsPerRun(5, describeOnce), describeAllocs+extra*(describeForks*forkAllocs+describeRangeAllocs); allocs > want {
			t.Errorf("GOMAXPROCS=%d: Describe through a warm workspace allocated %.1f objects, want <= %.0f", procs, allocs, want)
		}
		if allocs, want := mallocsPerRun(5, indexOnce), searchIndexAllocs+extra*(searchIndexForks*forkAllocs+searchIndexRangeAlloc); allocs > want {
			t.Errorf("GOMAXPROCS=%d: the search-index stage allocated %.1f objects, want <= %.0f", procs, allocs, want)
		}
	}
}

// What Describe through a warm workspace and the search-index stage
// allocate at width 1: the published descriptions' arrays and the BM25
// indexes' (describe's dies with the call), their count arrays, the
// walk callbacks and a few records.
const (
	describeAllocs    = 56
	searchIndexAllocs = 18
)
