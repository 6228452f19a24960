package taxonomy

import (
	"context"
	"math"
	"strings"
	"testing"

	"shoal/internal/model"
	"shoal/internal/synth"
	"shoal/internal/textutil"
)

// searchFixture indexes a generated catalog: 40 topics, each the titles
// of every 40th item plus the filtered texts of every 40th query.
func searchFixture(t *testing.T) (*Searcher, *model.Corpus) {
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
			want := s.idx.TopK(textutil.TokenizeFiltered(p), k)
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

// TestSearchAllocs: a search allocates only the hits it returns.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool caching is disabled under the race detector")
	}
	s, c := searchFixture(t)
	q := c.Queries[0].Text + " for the " + c.Items[0].Title
	s.Search(q, 5) // warm the pools
	if allocs := testing.AllocsPerRun(100, func() { s.Search(q, 5) }); allocs > 1 {
		t.Fatalf("Search allocated %.1f objects per call, want <= 1 (the hits)", allocs)
	}
}
