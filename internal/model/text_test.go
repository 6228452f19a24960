package model

import (
	"reflect"
	"sync"
	"testing"

	"shoal/internal/textutil"
)

func textCorpus() *Corpus {
	c := tinyCorpus()
	c.Items = append(c.Items,
		Item{ID: 2, Title: "防晒霜 SPF50 Sun-Block", Category: 2},
		Item{ID: 3, Title: "", Category: 0},
		Item{ID: 4, Title: "Beach beach BEACH dress", Category: 1},
	)
	c.Queries = append(c.Queries,
		Query{ID: 2, Text: "for the"},        // all stopwords: kept unfiltered
		Query{ID: 3, Text: "沙滩 dress for 夏"}, // CJK + stopword
		Query{ID: 4, Text: "   "},
		Query{ID: 5, Text: "beach dress"}, // same text as query 0
	)
	c.Categories = append(c.Categories, Category{ID: 3, Name: "户外 & Outdoor", Parent: RootCategory})
	return c
}

// strs spells an id list back into tokens through the plane.
func strs(p *TextPlane, ids []uint32) []string {
	return p.AppendTerms(nil, ids)
}

func TestTextPlaneMatchesTokenizer(t *testing.T) {
	c := textCorpus()
	p := c.Text()
	for i := range c.Items {
		if got, want := strs(p, p.Title(ItemID(i))), textutil.Tokenize(c.Items[i].Title); !reflect.DeepEqual(got, want) {
			t.Errorf("item %d title tokens = %q, want %q", i, got, want)
		}
	}
	for i := range c.Queries {
		if got, want := strs(p, p.Query(QueryID(i))), textutil.TokenizeFiltered(c.Queries[i].Text); !reflect.DeepEqual(got, want) {
			t.Errorf("query %d tokens = %q, want %q", i, got, want)
		}
	}
	for i := range c.Categories {
		if got, want := strs(p, p.Category(CategoryID(i))), textutil.Tokenize(c.Categories[i].Name); !reflect.DeepEqual(got, want) {
			t.Errorf("category %d tokens = %q, want %q", i, got, want)
		}
	}
	total := 0
	for i := range c.Items {
		total += len(p.Title(ItemID(i)))
	}
	if p.TitleTokens() != total {
		t.Errorf("TitleTokens() = %d, want %d", p.TitleTokens(), total)
	}
	// One id per distinct token, and ids round-trip through the vocabulary.
	for i := range c.Items {
		for _, id := range p.Title(ItemID(i)) {
			if got, ok := p.Vocab().ID(p.Vocab().Words()[id]); !ok || got != int(id) {
				t.Fatalf("term id %d does not round-trip", id)
			}
		}
	}
}

// TestTextPlaneBuiltOnce races first use from many goroutines — the
// pipeline's entities and word2vec stages reach for the plane
// concurrently — and checks they all got the one plane (run under -race).
func TestTextPlaneBuiltOnce(t *testing.T) {
	c := textCorpus()
	const readers = 8
	planes := make([]*TextPlane, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := c.Text()
			for i := range c.Items {
				_ = strs(p, p.Title(ItemID(i)))
			}
			planes[g] = p
		}()
	}
	wg.Wait()
	for g := range planes {
		if planes[g] != planes[0] {
			t.Fatalf("goroutine %d built its own text plane", g)
		}
	}
}
