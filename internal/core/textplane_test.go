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

// searchDocsOracle is the reference searchDocs is held equal to: the
// same assembly order and cap, with every string tokenized on the spot.
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
	// A taxonomy described elsewhere may carry strings the corpus does
	// not contain; those are tokenized on the spot.
	b.Taxonomy.Topics[0].DescQueries = append([]string{"A Phrase for the Corpus-Unknown"}, b.Taxonomy.Topics[0].DescQueries...)
	last := &b.Taxonomy.Topics[len(b.Taxonomy.Topics)-1]
	last.DescQueries = append(last.DescQueries, "another unknown phrase")
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
// strings, before and after a corpus-unknown description forces the
// vocabulary to be cloned.
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
	compare := func(stage string, wantCloned bool) {
		t.Helper()
		docs, vocab := b.SearchDocIDs(cfg.SearchDocTokenCap)
		if cloned := vocab != plane; cloned != wantCloned {
			t.Fatalf("%s: vocabulary cloned = %v, want %v", stage, cloned, wantCloned)
		}
		ids, err := taxonomy.NewSearcherIDs(ctx, b.Taxonomy, docs, vocab)
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
					t.Fatalf("%s: Search(%q, %d): %d hits, string-built searcher %d", stage, p, k, len(got), len(want))
				}
				for i := range want {
					if got[i].Topic != want[i].Topic || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("%s: Search(%q, %d)[%d] = %+v, string-built searcher %+v", stage, p, k, i, got[i], want[i])
					}
				}
				hits += len(got)
			}
		}
		if hits == 0 {
			t.Fatalf("%s: no probe matched anything", stage)
		}
		if plane.Size() != planeSize {
			t.Fatalf("%s: the text plane's vocabulary grew from %d to %d terms", stage, planeSize, plane.Size())
		}
	}
	compare("pipeline build", false)
	// A taxonomy described elsewhere: the phrase's tokens are not in the
	// plane, so assembly clones the vocabulary and adds them there.
	b.Taxonomy.Topics[0].DescQueries = append([]string{"A Phrase for the Corpus-Unknown"}, b.Taxonomy.Topics[0].DescQueries...)
	compare("corpus-unknown description", true)
}

// Allocation allowances of the slide's tail per worker beyond the first.
// For each loop it forks: what par.Run allocates (two objects per loop
// at any width above 1 and one per extra range, so per extra worker
// forkAllocs bounds it, and equals it at width 2) plus the extra range's
// goroutine, which allocates a descriptor when the runtime has no free
// one (it often has none under -race). In Describe, also each extra
// range's own state — its candidate accumulator, a bm25 Scorer with its
// scratch and hit buffer, its share of the index's count arrays and its
// ranking buffer, at most describeRangeAllocs objects. Describe forks
// describeForks loops (pseudo documents, the index and the candidates
// count then fill; scoring and ranking once each); SearchDocIDs forks
// one, whose every range fills an array of its own.
const (
	forkAllocs           = 2 + 1 + 1
	describeForks        = 8
	describeRangeAllocs  = 32
	searchDocForks       = 1
	searchDocRangeAllocs = 1
)

// mallocsPerRun is testing.AllocsPerRun at the current GOMAXPROCS, which
// AllocsPerRun pins to 1: heap objects per call of f, after one warm-up
// call, as the least of three averages over runs calls — whatever else
// the process allocates meanwhile only adds.
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

// TestSlideTailDoesNoTextWork is the regression lock on the text plane:
// with the plane warm, describe and search-doc assembly allocate a
// handful of arrays per call, not per token or per topic-candidate pair
// (the string-tokenizing implementations took 15 197 and 23 866
// allocations on this corpus; describe takes 65, and the id documents
// two — one flat array and its per-topic headers). Neither keeps state
// between calls, so every call measured is a first call. That holds at
// width 1 (testing.AllocsPerRun runs at GOMAXPROCS=1); at widths 2, 3
// and 7 each worker beyond the first may add the fixed allowance above.
func TestSlideTailDoesNoTextWork(t *testing.T) {
	corpus := smallCorpus(t)
	cfg := testConfig()
	cfg.TrainEmbeddings = false
	b, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	describeOnce := func() {
		if _, err := describe.Describe(ctx, b.Taxonomy, corpus, b.Clicks, cfg.Describe); err != nil {
			t.Fatal(err)
		}
	}

	if allocs := testing.AllocsPerRun(5, describeOnce); allocs > 200 {
		t.Errorf("warm Describe allocated %.0f objects, want <= 200", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { b.SearchDocIDs(cfg.SearchDocTokenCap) }); allocs > 2 {
		t.Errorf("warm SearchDocIDs allocated %.0f objects for %d topics, want <= 2", allocs, len(b.Taxonomy.Topics))
	}
	// The string view adds one flat array of tokens and its headers.
	if allocs := testing.AllocsPerRun(5, func() { b.SearchDocs(cfg.SearchDocTokenCap) }); allocs > 4 {
		t.Errorf("warm SearchDocs allocated %.0f objects for %d topics, want <= 4", allocs, len(b.Taxonomy.Topics))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		extra := float64(procs - 1)
		if allocs, want := mallocsPerRun(5, describeOnce), 200+extra*(describeForks*forkAllocs+describeRangeAllocs); allocs > want {
			t.Errorf("GOMAXPROCS=%d: warm Describe allocated %.1f objects, want <= %.0f", procs, allocs, want)
		}
		if allocs, want := mallocsPerRun(5, func() { b.SearchDocIDs(cfg.SearchDocTokenCap) }), 2+extra*(searchDocForks*forkAllocs+searchDocRangeAllocs); allocs > want {
			t.Errorf("GOMAXPROCS=%d: warm SearchDocIDs allocated %.1f objects, want <= %.0f", procs, allocs, want)
		}
		if allocs, want := mallocsPerRun(5, func() { b.SearchDocs(cfg.SearchDocTokenCap) }), 4+extra*(searchDocForks*forkAllocs+searchDocRangeAllocs); allocs > want {
			t.Errorf("GOMAXPROCS=%d: warm SearchDocs allocated %.1f objects, want <= %.0f", procs, allocs, want)
		}
	}
}
