package shoal

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// fastConfig is a quick pipeline configuration for facade tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Word2Vec.Epochs = 2
	cfg.Word2Vec.Dim = 16
	cfg.Word2Vec.MinCount = 1
	cfg.Graph.MinSimilarity = 0.2
	cfg.HAC.StopThreshold = 0.25
	cfg.Taxonomy.Levels = []float64{0.25, 0.5}
	return cfg
}

func buildCurated(t *testing.T) *System {
	t.Helper()
	sys, err := Build(CuratedCorpus(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBuildAndStats(t *testing.T) {
	sys := buildCurated(t)
	if sys.Topics() == 0 {
		t.Fatal("no topics built")
	}
	if sys.Stats() == "" {
		t.Fatal("empty stats")
	}
	if len(sys.RootTopics()) == 0 {
		t.Fatal("no root topics")
	}
	if sys.Corpus() == nil || sys.Taxonomy() == nil {
		t.Fatal("nil accessors")
	}
}

func TestScenarioAQueryToTopic(t *testing.T) {
	sys := buildCurated(t)
	hits := sys.SearchTopics("beach dress", 3)
	if len(hits) == 0 {
		t.Fatal("no topic hits for 'beach dress'")
	}
	topic, err := sys.Topic(hits[0].Topic)
	if err != nil {
		t.Fatal(err)
	}
	// The matched topic should be dominated by beach-trip items
	// (scenario 0).
	beach := 0
	for _, it := range topic.Items {
		if sys.Corpus().Items[it].Scenario == 0 {
			beach++
		}
	}
	if beach*2 < len(topic.Items) {
		t.Fatalf("top hit topic is not the beach topic: %d/%d beach items", beach, len(topic.Items))
	}
}

func TestScenarioBSubTopics(t *testing.T) {
	sys := buildCurated(t)
	for _, root := range sys.RootTopics() {
		subs, err := sys.SubTopics(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			st, err := sys.Topic(sub)
			if err != nil {
				t.Fatal(err)
			}
			if st.Parent != root {
				t.Fatalf("subtopic %d has parent %d, want %d", sub, st.Parent, root)
			}
		}
	}
	if _, err := sys.SubTopics(9999); err == nil {
		t.Fatal("unknown topic accepted")
	}
}

func TestScenarioCTopicCategoryItems(t *testing.T) {
	sys := buildCurated(t)
	hits := sys.SearchTopics("beach dress", 1)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	topic, err := sys.Topic(hits[0].Topic)
	if err != nil {
		t.Fatal(err)
	}
	all, err := sys.TopicItems(topic.ID, RootCategory)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(topic.Items) {
		t.Fatalf("TopicItems(all) = %d items, want %d", len(all), len(topic.Items))
	}
	if len(topic.Categories) == 0 {
		t.Fatal("topic has no categories")
	}
	sum := 0
	for _, cat := range topic.Categories {
		sub, err := sys.TopicItems(topic.ID, cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range sub {
			if sys.Corpus().Items[it].Category != cat {
				t.Fatalf("item %d leaked into category %d listing", it, cat)
			}
		}
		sum += len(sub)
	}
	if sum != len(all) {
		t.Fatalf("category partitions sum to %d, want %d", sum, len(all))
	}
}

func TestScenarioDRelatedCategories(t *testing.T) {
	sys, err := Build(CuratedCorpus(), func() Config {
		cfg := fastConfig()
		cfg.CatCorr.MinStrength = 0 // tiny corpus: a single root topic per scenario
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	pairs := sys.CategoryCorrelations()
	if len(pairs) == 0 {
		t.Fatal("no category correlations")
	}
	// The Dress category (id of "Dress" leaf) should be correlated with
	// other beach categories like Swimwear or Sunblock.
	var dress CategoryID = -1
	for i := range sys.Corpus().Categories {
		if sys.Corpus().Categories[i].Name == "Dress" {
			dress = sys.Corpus().Categories[i].ID
		}
	}
	rel := sys.RelatedCategories(dress)
	if len(rel) == 0 {
		t.Fatalf("Dress has no related categories; pairs=%v", pairs)
	}
}

// TestCorrelationResultsAreCopies: a caller that scribbles over what
// RelatedCategories or CategoryCorrelations returned does not change the
// next answer.
func TestCorrelationResultsAreCopies(t *testing.T) {
	cfg := fastConfig()
	cfg.CatCorr.MinStrength = 0
	sys, err := Build(CuratedCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := sys.CategoryCorrelations()
	if len(pairs) == 0 {
		t.Fatal("no category correlations")
	}
	c := pairs[0].A
	rel := sys.RelatedCategories(c)
	if len(rel) == 0 {
		t.Fatalf("category %d has no related categories", c)
	}
	wantPairs := slices.Clone(pairs)
	wantRel := slices.Clone(rel)
	for i := range pairs {
		pairs[i] = CategoryCorrelation{A: -1, B: -1, Strength: -1}
	}
	for i := range rel {
		rel[i] = CategoryCorrelation{A: -1, B: -1, Strength: -1}
	}
	if got := sys.CategoryCorrelations(); !slices.Equal(got, wantPairs) {
		t.Fatalf("CategoryCorrelations after the caller's writes = %v, want %v", got, wantPairs)
	}
	if got := sys.RelatedCategories(c); !slices.Equal(got, wantRel) {
		t.Fatalf("RelatedCategories(%d) after the caller's writes = %v, want %v", c, got, wantRel)
	}
}

func TestItemTopicBounds(t *testing.T) {
	sys := buildCurated(t)
	if sys.ItemTopic(-1) != NoTopic || sys.ItemTopic(99999) != NoTopic {
		t.Fatal("out-of-range item ids must map to NoTopic")
	}
}

func TestABTestTopicBeatsCategory(t *testing.T) {
	gen := DefaultCorpusConfig()
	gen.Scenarios = 10
	gen.ItemsPerScenario = 60
	gen.QueriesPerScenario = 15
	gen.NoiseItems = 30
	gen.HeadQueries = 5
	corpus, err := GenerateCorpus(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	sys, err := Build(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ab := DefaultABConfig()
	ab.Users = 30_000
	res, err := sys.RunABTest(ab)
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiment.CTR <= res.Control.CTR {
		t.Fatalf("topic arm CTR %.4f not above category arm %.4f", res.Experiment.CTR, res.Control.CTR)
	}
	if res.Lift <= 0 {
		t.Fatalf("lift = %f, want positive", res.Lift)
	}
}

func TestSaveLoadTaxonomy(t *testing.T) {
	sys := buildCurated(t)
	var buf bytes.Buffer
	if err := sys.SaveTaxonomy(&buf); err != nil {
		t.Fatal(err)
	}
	tx, err := LoadTaxonomy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tx, sys.Taxonomy()) {
		t.Fatal("taxonomy changed across save/load")
	}
}

func TestRecommendHelper(t *testing.T) {
	sys := buildCurated(t)
	tr, err := sys.TopicRecommender()
	if err != nil {
		t.Fatal(err)
	}
	// Find a placed item.
	var seed ItemID = -1
	for it := range sys.Corpus().Items {
		if sys.ItemTopic(ItemID(it)) != NoTopic {
			seed = ItemID(it)
			break
		}
	}
	if seed == -1 {
		t.Fatal("no placed item")
	}
	recs := Recommend(tr, seed, 3, 7)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	again := Recommend(tr, seed, 3, 7)
	if !reflect.DeepEqual(recs, again) {
		t.Fatal("same rng seed gave different recommendations")
	}
}
