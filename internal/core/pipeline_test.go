package core

import (
	"testing"

	"shoal/internal/eval"
	"shoal/internal/model"
	"shoal/internal/synth"
	"shoal/internal/taxonomy"
	"shoal/internal/word2vec"
)

// testConfig is a fast pipeline configuration for small corpora.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Word2Vec.Epochs = 2
	cfg.Word2Vec.Dim = 16
	cfg.Word2Vec.MinCount = 1
	cfg.Graph.MinSimilarity = 0.25
	return cfg
}

func smallCorpus(t *testing.T) *model.Corpus {
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
	return c
}

func TestRunEndToEnd(t *testing.T) {
	corpus := smallCorpus(t)
	b, err := Run(corpus, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.Graph.NumEdges() == 0 {
		t.Fatal("entity graph has no edges")
	}
	if len(b.Dendrogram.Merges) == 0 {
		t.Fatal("no merges")
	}
	if len(b.Taxonomy.Topics) == 0 {
		t.Fatal("no topics")
	}
	if err := b.Taxonomy.Validate(); err != nil {
		t.Fatalf("invalid taxonomy: %v", err)
	}
	if len(b.StageTimings) < 7 {
		t.Fatalf("stage timings = %v, want >= 7 stages", b.StageTimings)
	}
	// The taxonomy should recover scenarios with high precision.
	res, err := eval.Precision(b.Taxonomy, corpus, eval.PrecisionConfig{
		SampleTopics: 0, ItemsPerTopic: 0, MinTopicItems: 3, RootTopicsOnly: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision < 0.9 {
		t.Fatalf("precision = %.3f, want >= 0.9 on easy synthetic corpus", res.Precision)
	}
}

func TestRunDescriptionsPopulated(t *testing.T) {
	corpus := smallCorpus(t)
	b, err := Run(corpus, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	withDesc := 0
	for i := range b.Taxonomy.Topics {
		if b.Taxonomy.Topics[i].Description != "" {
			withDesc++
		}
	}
	if withDesc < len(b.Taxonomy.Topics)/2 {
		t.Fatalf("only %d/%d topics described", withDesc, len(b.Taxonomy.Topics))
	}
}

func TestRunSearchFindsScenarioTopic(t *testing.T) {
	corpus := smallCorpus(t)
	b, err := Run(corpus, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.Searcher == nil {
		t.Fatal("no searcher built")
	}
	// Search with a scenario query; the top hit should be a topic whose
	// majority scenario matches.
	checked := 0
	correct := 0
	for qi := range corpus.Queries {
		q := &corpus.Queries[qi]
		if q.Scenario == model.NoScenario {
			continue
		}
		hits := b.Searcher.Search(q.Text, 1)
		if len(hits) == 0 {
			continue
		}
		checked++
		tp := &b.Taxonomy.Topics[hits[0].Topic]
		counts := map[model.ScenarioID]int{}
		for _, it := range tp.Items {
			counts[corpus.Items[it].Scenario]++
		}
		best, bestN := model.NoScenario, -1
		for s, n := range counts {
			if n > bestN {
				best, bestN = s, n
			}
		}
		if best == q.Scenario {
			correct++
		}
		if checked >= 60 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no queries produced hits")
	}
	if float64(correct)/float64(checked) < 0.7 {
		t.Fatalf("query->topic accuracy %d/%d below 0.7", correct, checked)
	}
}

func TestRunWithoutEmbeddings(t *testing.T) {
	corpus := smallCorpus(t)
	cfg := testConfig()
	cfg.TrainEmbeddings = false
	b, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Embeddings != nil {
		t.Fatal("embeddings trained despite TrainEmbeddings=false")
	}
	if len(b.Taxonomy.Topics) == 0 {
		t.Fatal("no topics without embeddings")
	}
}

func TestRunInvalidCorpus(t *testing.T) {
	bad := &model.Corpus{Items: []model.Item{{ID: 3}}}
	if _, err := Run(bad, testConfig()); err == nil {
		t.Fatal("invalid corpus accepted")
	}
}

func TestRunInvalidStageConfigSurfacesStage(t *testing.T) {
	corpus := smallCorpus(t)
	cfg := testConfig()
	cfg.Word2Vec = word2vec.Config{} // invalid: zero Dim
	if _, err := Run(corpus, cfg); err == nil {
		t.Fatal("invalid word2vec config accepted")
	}
}

func TestRunCuratedBeachScenario(t *testing.T) {
	// The Fig. 1(b) case: on the curated corpus the beach topic must
	// span multiple ontology categories.
	corpus := synth.Curated()
	cfg := testConfig()
	cfg.Graph.MinSimilarity = 0.2
	cfg.HAC.StopThreshold = 0.25
	cfg.Taxonomy.Levels = []float64{0.25, 0.5}
	b, err := Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, root := range b.Taxonomy.Roots() {
		tp := &b.Taxonomy.Topics[root]
		counts := map[model.ScenarioID]int{}
		for _, it := range tp.Items {
			counts[corpus.Items[it].Scenario]++
		}
		if counts[0] >= 6 && len(tp.Categories) >= 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cross-category beach topic found; roots: %v", b.Taxonomy.Roots())
	}
	_ = taxonomy.NoTopic
}
