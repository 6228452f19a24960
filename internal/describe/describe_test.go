package describe

import (
	"context"
	"math"
	"strings"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/dendrogram"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/taxonomy"
)

// fixture builds two topics: a "beach" topic (items 0,1) and a "mountain"
// topic (items 2,3), with queries whose click patterns make "beach trip"
// representative for the first and "mountain trek" for the second, plus a
// generic query "sale" that clicks everywhere (low concentration).
func fixture(t *testing.T) (*taxonomy.Taxonomy, *model.Corpus, *bipartite.Graph) {
	t.Helper()
	corpus := &model.Corpus{
		Categories: []model.Category{
			{ID: 0, Name: "Dress", Parent: model.RootCategory},
			{ID: 1, Name: "Backpack", Parent: model.RootCategory},
		},
		Items: []model.Item{
			{ID: 0, Title: "beach dress summer", Category: 0, PriceCents: 100},
			{ID: 1, Title: "beach swimwear sunny", Category: 0, PriceCents: 10000},
			{ID: 2, Title: "mountain backpack trek", Category: 1, PriceCents: 100},
			{ID: 3, Title: "mountain boots trail", Category: 1, PriceCents: 10000},
		},
		Queries: []model.Query{
			{ID: 0, Text: "beach trip"},
			{ID: 1, Text: "mountain trek"},
			{ID: 2, Text: "sale"},
			{ID: 3, Text: "beach towel"},
		},
	}
	clicks := bipartite.New(0)
	evs := []model.ClickEvent{
		{Query: 0, Item: 0, Day: 0, Count: 8},
		{Query: 0, Item: 1, Day: 0, Count: 6},
		{Query: 3, Item: 0, Day: 0, Count: 1},
		{Query: 1, Item: 2, Day: 0, Count: 7},
		{Query: 1, Item: 3, Day: 0, Count: 5},
		{Query: 2, Item: 0, Day: 0, Count: 2},
		{Query: 2, Item: 1, Day: 0, Count: 2},
		{Query: 2, Item: 2, Day: 0, Count: 2},
		{Query: 2, Item: 3, Day: 0, Count: 2},
	}
	if err := clicks.AddAll(evs); err != nil {
		t.Fatal(err)
	}
	es, err := entitygraph.BuildEntities(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	d := &dendrogram.Dendrogram{
		Leaves: 4,
		Merges: []dendrogram.Merge{
			{A: 0, B: 1, New: 4, Sim: 0.9, Round: 0},
			{A: 2, B: 3, New: 5, Sim: 0.9, Round: 0},
		},
	}
	tx, err := taxonomy.Build(context.Background(), d, es, corpus, taxonomy.Config{Levels: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Topics) != 2 {
		t.Fatalf("topics = %d, want 2", len(tx.Topics))
	}
	return tx, corpus, clicks
}

func topicByItem(tx *taxonomy.Taxonomy, it model.ItemID) int {
	return int(tx.ItemTopic[it])
}

func TestDescribePicksRepresentativeQueries(t *testing.T) {
	tx, corpus, clicks := fixture(t)
	descs, err := Describe(context.Background(), tx, corpus, clicks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != 2 {
		t.Fatalf("descriptions = %d, want 2", len(descs))
	}
	beach := descs[topicByItem(tx, 0)]
	mountain := descs[topicByItem(tx, 2)]
	if len(beach.Queries) == 0 || beach.Queries[0] != "beach trip" {
		t.Fatalf("beach topic description = %v, want 'beach trip' first", beach.Queries)
	}
	if len(mountain.Queries) == 0 || mountain.Queries[0] != "mountain trek" {
		t.Fatalf("mountain topic description = %v, want 'mountain trek' first", mountain.Queries)
	}
}

func TestDescribeWritesIntoTaxonomy(t *testing.T) {
	tx, corpus, clicks := fixture(t)
	if _, err := Describe(context.Background(), tx, corpus, clicks, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for i := range tx.Topics {
		if tx.Topics[i].Description == "" {
			t.Fatalf("topic %d has empty description", i)
		}
		if len(tx.Topics[i].DescQueries) == 0 {
			t.Fatalf("topic %d has no desc queries", i)
		}
		if tx.Topics[i].DescQueries[0] != tx.Topics[i].Description {
			t.Fatal("Description != first DescQuery")
		}
	}
}

func TestDescribeGenericQueryRanksLow(t *testing.T) {
	tx, corpus, clicks := fixture(t)
	descs, err := Describe(context.Background(), tx, corpus, clicks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range descs {
		for rank, q := range d.Queries {
			if q == "sale" && rank == 0 {
				t.Fatalf("generic query 'sale' ranked first in topic %d: %v", d.Topic, d.Queries)
			}
		}
	}
}

func TestDescribeScoresSortedAndBounded(t *testing.T) {
	tx, corpus, clicks := fixture(t)
	descs, err := Describe(context.Background(), tx, corpus, clicks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range descs {
		for i, s := range d.Scores {
			if s < 0 || s > 1 {
				t.Fatalf("score %f outside [0,1]", s)
			}
			if i > 0 && s > d.Scores[i-1] {
				t.Fatalf("scores not descending: %v", d.Scores)
			}
		}
	}
}

func TestDescribeTopQueriesLimit(t *testing.T) {
	tx, corpus, clicks := fixture(t)
	cfg := DefaultConfig()
	cfg.TopQueries = 1
	descs, err := Describe(context.Background(), tx, corpus, clicks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range descs {
		if len(d.Queries) > 1 {
			t.Fatalf("TopQueries=1 but got %d queries", len(d.Queries))
		}
	}
}

func TestDescribeValidation(t *testing.T) {
	tx, corpus, clicks := fixture(t)
	cfg := DefaultConfig()
	cfg.TopQueries = 0
	if _, err := Describe(context.Background(), tx, corpus, clicks, cfg); err == nil {
		t.Fatal("TopQueries=0 accepted")
	}
}

func TestDescribeEmptyTaxonomy(t *testing.T) {
	_, corpus, clicks := fixture(t)
	empty := &taxonomy.Taxonomy{}
	descs, err := Describe(context.Background(), empty, corpus, clicks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != 0 {
		t.Fatalf("descriptions for empty taxonomy: %v", descs)
	}
}

func TestDescribeTopicWithNoQueries(t *testing.T) {
	tx, corpus, _ := fixture(t)
	// Click graph with no clicks at all: descriptions must be empty but
	// Describe must not fail.
	descs, err := Describe(context.Background(), tx, corpus, bipartite.New(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range descs {
		if len(d.Queries) != 0 {
			t.Fatalf("queries from empty click graph: %v", d.Queries)
		}
	}
}

func TestDescribeDistinctTopicsGetDistinctTopQueries(t *testing.T) {
	tx, corpus, clicks := fixture(t)
	descs, err := Describe(context.Background(), tx, corpus, clicks, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if strings.EqualFold(descs[0].Queries[0], descs[1].Queries[0]) {
		t.Fatalf("both topics share top query %q", descs[0].Queries[0])
	}
}

// TestLogCountIsMathLog holds logCount to math.Log bit for bit, on the
// table and past it, at integers and between them.
func TestLogCountIsMathLog(t *testing.T) {
	for _, x := range []float64{-1, 0.5, 1.5, 4095.5, 4096, 4097, 1 << 40, math.Inf(1), math.NaN()} {
		if got, want := logCount(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("logCount(%v) = %v, want %v", x, got, want)
		}
	}
	for n := range 2 * len(logTable) {
		if got, want := logCount(float64(n)), math.Log(float64(n)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("logCount(%d) = %v, want %v", n, got, want)
		}
	}
}
