package taxonomy

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"shoal/internal/bm25"
	"shoal/internal/model"
	"shoal/internal/synth"
	"shoal/internal/textutil"
)

// searchFixture indexes a generated catalog: 40 topics, each the titles
// of every 40th item plus the filtered texts of every 40th query.
func searchFixture(t testing.TB) (*Searcher, *model.Corpus) {
	t.Helper()
	gen := synth.DefaultConfig()
	gen.Scenarios = 8
	gen.ItemsPerScenario = 60
	gen.QueriesPerScenario = 15
	gen.NoiseItems = 30
	gen.HeadQueries = 6
	c, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	const topics = 40
	tx := &Taxonomy{Topics: make([]Topic, topics)}
	docs := make([][]string, topics)
	for i := range tx.Topics {
		tx.Topics[i].ID = model.TopicID(i)
	}
	for i := range c.Items {
		docs[i%topics] = append(docs[i%topics], textutil.Tokenize(c.Items[i].Title)...)
	}
	for i := range c.Queries {
		docs[i%topics] = append(docs[i%topics], textutil.TokenizeFiltered(c.Queries[i].Text)...)
	}
	s, err := NewSearcher(context.Background(), tx, docs)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// TestSearchMatchesStringPath holds Search — tokenized into pooled bytes,
// resolved through the vocabulary, de-duplicated by term id — to the
// TokenizeFiltered + string TopK path it replaced, hit for hit: topic
// ids and score bits.
func TestSearchMatchesStringPath(t *testing.T) {
	s, c := searchFixture(t)
	var probes []string
	for i := range c.Queries {
		q := c.Queries[i].Text
		probes = append(probes, q, q+" "+q, "the "+q, strings.ToUpper(q[:1])+q[1:])
	}
	for i := 0; i < 500 && i < len(c.Items); i++ {
		probes = append(probes, c.Items[i].Title)
	}
	probes = append(probes, "", "for the", "of and THE", "BeAcH DrEsS",
		"spf 50 2024", "防晒霜 spf50", "防 "+c.Queries[0].Text, "zzzz qqqq")

	hits := 0
	for _, p := range probes {
		for _, k := range []int{1, 5, 100} {
			got := s.Search(p, k)
			want := s.idx.TopK(new(bm25.Scratch), textutil.TokenizeFiltered(p), k)
			if len(got) != len(want) {
				t.Fatalf("Search(%q, %d): %d hits, string path %d", p, k, len(got), len(want))
			}
			for i, h := range want {
				if got[i].Topic != model.TopicID(h.Doc) || math.Float64bits(got[i].Score) != math.Float64bits(h.Score) {
					t.Fatalf("Search(%q, %d)[%d] = %+v, string path {%d %v}", p, k, i, got[i], model.TopicID(h.Doc), h.Score)
				}
			}
			hits += len(got)
		}
	}
	if hits == 0 {
		t.Fatal("no probe matched anything")
	}
}

// FuzzSearchMatchesTokenizeFiltered holds Search, for an arbitrary query
// and k, to the spelled-out path: TokenizeFiltered, each token's id in
// the index's vocabulary (unknown tokens dropped), AppendTopK. Hits must
// agree in topic and score bits, so the in-place stopword rule Search
// applies to its byte buffer is the one TokenizeFiltered applies.
func FuzzSearchMatchesTokenizeFiltered(f *testing.F) {
	s, c := searchFixture(f)
	for _, q := range []string{"", "for the", "of and THE", "the " + c.Queries[0].Text, "BeAcH DrEsS",
		"防晒霜 spf50", c.Items[0].Title, c.Queries[1].Text + " " + c.Queries[1].Text} {
		f.Add(q, uint8(5))
	}
	vocab := s.idx.Vocab()
	f.Fuzz(func(t *testing.T, query string, k uint8) {
		var terms []uint32
		for _, tok := range textutil.TokenizeFiltered(query) {
			if id, ok := vocab.ID(tok); ok {
				terms = append(terms, uint32(id))
			}
		}
		want := s.idx.AppendTopK(new(bm25.Scratch), nil, terms, int(k))
		got := s.Search(query, int(k))
		if len(got) != len(want) {
			t.Fatalf("Search(%q, %d): %d hits, spelled-out path %d", query, k, len(got), len(want))
		}
		for i, h := range want {
			if got[i].Topic != model.TopicID(h.Doc) || math.Float64bits(got[i].Score) != math.Float64bits(h.Score) {
				t.Fatalf("Search(%q, %d)[%d] = %+v, spelled-out path {%d %v}", query, k, i, got[i], model.TopicID(h.Doc), h.Score)
			}
		}
	})
}

// TestSearchAllocs: a search allocates only the hits it returns.
func TestSearchAllocs(t *testing.T) {
	s, c := searchFixture(t)
	q := c.Queries[0].Text + " for the " + c.Items[0].Title
	want := s.Search(q, 5)
	if len(want) == 0 {
		t.Fatal("the fixture query has no hits")
	}
	// AppendSearch into a buffer with room, in a scratch that has
	// searched before, keeps dst's prefix, appends Search's hits and
	// allocates nothing.
	sc := new(SearchScratch)
	buf := make([]Hit, 1, 1+len(want))
	buf[0] = Hit{Topic: -1}
	buf = s.AppendSearch(sc, buf[:1], q, 5)
	if allocs := testing.AllocsPerRun(100, func() { buf = s.AppendSearch(sc, buf[:1], q, 5) }); allocs != 0 {
		t.Fatalf("AppendSearch into a buffer with room allocated %.1f objects per call", allocs)
	}
	if buf[0] != (Hit{Topic: -1}) || !slices.Equal(buf[1:], want) {
		t.Fatalf("AppendSearch = %v, want [{-1 0}] + %v", buf, want)
	}
	if raceEnabled {
		t.Skip("sync.Pool caching is disabled under the race detector")
	}
	s.Search(q, 5) // warm the pool
	if allocs := testing.AllocsPerRun(100, func() { s.Search(q, 5) }); allocs > 1 {
		t.Fatalf("Search allocated %.1f objects per call, want <= 1 (the hits)", allocs)
	}
}
