package core

import (
	"context"
	"reflect"
	"testing"

	"shoal/internal/describe"
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
	for _, tokenCap := range []int{1, 7, 256} {
		got, want := b.SearchDocs(tokenCap), searchDocsOracle(b, tokenCap)
		if len(got) != len(want) {
			t.Fatalf("cap %d: %d docs, want %d", tokenCap, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("cap %d topic %d: doc = %q, want %q", tokenCap, i, got[i], want[i])
			}
		}
	}
}

// TestSlideTailDoesNoTextWork is the regression lock on the text plane:
// with the plane warm, describe and search-doc assembly allocate a
// handful of arrays per call, not per token or per topic-candidate pair
// (the string-tokenizing implementations took 15 197 and 23 866
// allocations on this corpus; these take 73 and 107).
func TestSlideTailDoesNoTextWork(t *testing.T) {
	corpus := smallCorpus(t)
	cfg := testConfig()
	cfg.TrainEmbeddings = false
	b, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	topics := float64(len(b.Taxonomy.Topics))

	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := describe.Describe(ctx, b.Taxonomy, corpus, b.Clicks, cfg.Describe); err != nil {
			t.Fatal(err)
		}
	}); allocs > 200 {
		t.Errorf("warm Describe allocated %.0f objects, want <= 200", allocs)
	}
	// One allocation per non-empty doc plus the fixed few.
	if allocs := testing.AllocsPerRun(5, func() { b.SearchDocs(cfg.SearchDocTokenCap) }); allocs > topics+10 {
		t.Errorf("warm SearchDocs allocated %.0f objects for %.0f topics, want <= topics+10", allocs, topics)
	}
}
