package recommend

import (
	"context"
	"math/rand/v2"
	"testing"

	"shoal/internal/dendrogram"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/taxonomy"
)

// world builds a corpus with two leaf categories under one parent plus an
// unrelated category, and a taxonomy with one cross-category topic.
func world(t *testing.T) (*model.Corpus, *taxonomy.Taxonomy) {
	t.Helper()
	corpus := &model.Corpus{
		Categories: []model.Category{
			{ID: 0, Name: "Ladies' wear", Parent: model.RootCategory},
			{ID: 1, Name: "Dress", Parent: 0},
			{ID: 2, Name: "Swimwear", Parent: 0},
			{ID: 3, Name: "Routers", Parent: model.RootCategory},
		},
		Items: []model.Item{
			{ID: 0, Title: "beach dress a", Category: 1, PriceCents: 100, Attrs: []string{"c=red"}, Scenario: 0},
			{ID: 1, Title: "beach dress b", Category: 1, PriceCents: 110, Attrs: []string{"c=blue"}, Scenario: 0},
			{ID: 2, Title: "beach bikini", Category: 2, PriceCents: 100, Scenario: 0},
			{ID: 3, Title: "office dress", Category: 1, PriceCents: 50000, Attrs: []string{"c=gray"}, Scenario: 1},
			{ID: 4, Title: "router x", Category: 3, PriceCents: 100, Scenario: model.NoScenario},
		},
	}
	es, err := entitygraph.BuildEntities(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	// Entities are singletons here (distinct attrs/prices/categories);
	// find entity ids for items 0,1,2 and merge them into one topic.
	e0, e1, e2 := es.ItemEntity[0], es.ItemEntity[1], es.ItemEntity[2]
	n := int32(len(es.Entities))
	d := &dendrogram.Dendrogram{
		Leaves: int(n),
		Merges: []dendrogram.Merge{
			{A: int32(e0), B: int32(e1), New: n, Sim: 0.9, Round: 0},
			{A: n, B: int32(e2), New: n + 1, Sim: 0.8, Round: 1},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	tx, err := taxonomy.Build(context.Background(), d, es, corpus, taxonomy.Config{Levels: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	return corpus, tx
}

func TestCategoryRecommenderStaysInOntology(t *testing.T) {
	corpus, _ := world(t)
	r, err := NewCategoryRecommender(corpus)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 0))
	recs := r.Recommend(0, 10, rng)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	for _, it := range recs {
		if it == 0 {
			t.Fatal("seed recommended")
		}
		cat := corpus.Items[it].Category
		if cat != 1 && cat != 2 {
			t.Fatalf("item %d from category %d, want Dress or sibling Swimwear", it, cat)
		}
	}
	// The router (unrelated root) must never appear.
	for _, it := range recs {
		if it == 4 {
			t.Fatal("unrelated category recommended")
		}
	}
}

func TestTopicRecommenderCoversScenario(t *testing.T) {
	corpus, tx := world(t)
	r, err := NewTopicRecommender(corpus, tx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 0))
	recs := r.Recommend(0, 10, rng)
	want := map[model.ItemID]bool{1: true, 2: true}
	if len(recs) != 2 {
		t.Fatalf("recs = %v, want items 1 and 2", recs)
	}
	for _, it := range recs {
		if !want[it] {
			t.Fatalf("unexpected rec %d", it)
		}
	}
}

func TestTopicRecommenderUnassignedSeed(t *testing.T) {
	corpus, tx := world(t)
	r, err := NewTopicRecommender(corpus, tx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 0))
	if recs := r.Recommend(4, 5, rng); recs != nil {
		t.Fatalf("recs for unassigned seed = %v, want nil", recs)
	}
}

func TestRecommendersHandleBadInput(t *testing.T) {
	corpus, tx := world(t)
	cr, err := NewCategoryRecommender(corpus)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTopicRecommender(corpus, tx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 0))
	for _, r := range []Recommender{cr, tr} {
		if got := r.Recommend(-1, 5, rng); got != nil {
			t.Fatalf("%s accepted negative seed", r.Name())
		}
		if got := r.Recommend(999, 5, rng); got != nil {
			t.Fatalf("%s accepted out-of-range seed", r.Name())
		}
		if got := r.Recommend(0, 0, rng); got != nil {
			t.Fatalf("%s accepted k=0", r.Name())
		}
	}
}

func TestNewRecommenderValidation(t *testing.T) {
	corpus, tx := world(t)
	if _, err := NewCategoryRecommender(&model.Corpus{Items: []model.Item{{ID: 9}}}); err == nil {
		t.Fatal("invalid corpus accepted")
	}
	if _, err := NewTopicRecommender(corpus, nil); err == nil {
		t.Fatal("nil taxonomy accepted")
	}
	short := &taxonomy.Taxonomy{ItemTopic: []model.TopicID{0}}
	if _, err := NewTopicRecommender(corpus, short); err == nil {
		t.Fatal("mismatched taxonomy accepted")
	}
	_ = tx
}

func TestSampleWithoutReplacement(t *testing.T) {
	pool := []model.ItemID{1, 2, 3, 4, 5, 6, 7, 8}
	rng := rand.New(rand.NewPCG(7, 0))
	got := sample(pool, 5, rng)
	if len(got) != 5 {
		t.Fatalf("sample returned %d, want 5", len(got))
	}
	seen := map[model.ItemID]bool{}
	for _, it := range got {
		if seen[it] {
			t.Fatalf("duplicate %d in sample", it)
		}
		seen[it] = true
	}
	// Small pool returned whole.
	all := sample(pool[:3], 5, rng)
	if len(all) != 3 {
		t.Fatalf("sample of small pool = %d items, want 3", len(all))
	}
}

func TestCategoryRecommenderName(t *testing.T) {
	corpus, tx := world(t)
	cr, _ := NewCategoryRecommender(corpus)
	tr, _ := NewTopicRecommender(corpus, tx)
	if cr.Name() == tr.Name() {
		t.Fatal("arms share a name")
	}
}
