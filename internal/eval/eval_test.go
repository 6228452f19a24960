package eval

import (
	"math"
	"testing"

	"shoal/internal/model"
	"shoal/internal/taxonomy"
)

// makeWorld builds a corpus of n items with scenario labels and a
// hand-assembled taxonomy placing them; placement[i] = root topic of item
// i (or -1 for unassigned).
func makeWorld(labels []model.ScenarioID, placement []model.TopicID, topicCount int) (*taxonomy.Taxonomy, *model.Corpus) {
	corpus := &model.Corpus{
		Categories: []model.Category{{ID: 0, Name: "X", Parent: model.RootCategory}},
	}
	for i, s := range labels {
		corpus.Items = append(corpus.Items, model.Item{
			ID: model.ItemID(i), Title: "t", Category: 0, PriceCents: 100, Scenario: s,
		})
	}
	tx := &taxonomy.Taxonomy{
		ItemTopic: make([]model.TopicID, len(labels)),
	}
	for t := 0; t < topicCount; t++ {
		tx.Topics = append(tx.Topics, taxonomy.Topic{ID: model.TopicID(t), Parent: taxonomy.NoTopic})
	}
	for i, p := range placement {
		tx.ItemTopic[i] = p
		if p != taxonomy.NoTopic {
			tx.Topics[p].Items = append(tx.Topics[p].Items, model.ItemID(i))
		}
	}
	return tx, corpus
}

func TestPrecisionPerfectPlacement(t *testing.T) {
	labels := []model.ScenarioID{0, 0, 0, 1, 1, 1}
	placement := []model.TopicID{0, 0, 0, 1, 1, 1}
	tx, corpus := makeWorld(labels, placement, 2)
	res, err := Precision(tx, corpus, PrecisionConfig{MinTopicItems: 1, Seed: 1, RootTopicsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != 1 {
		t.Fatalf("Precision = %f, want 1", res.Precision)
	}
	if res.TopicsEvaluated != 2 || res.ItemsJudged != 6 {
		t.Fatalf("evaluated %d topics %d items, want 2 and 6", res.TopicsEvaluated, res.ItemsJudged)
	}
}

func TestPrecisionWithImpurity(t *testing.T) {
	// Topic 0 holds 3 scenario-0 items and 1 scenario-1 item: majority 0,
	// precision 3/4.
	labels := []model.ScenarioID{0, 0, 0, 1}
	placement := []model.TopicID{0, 0, 0, 0}
	tx, corpus := makeWorld(labels, placement, 1)
	res, err := Precision(tx, corpus, PrecisionConfig{MinTopicItems: 1, Seed: 1, RootTopicsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Precision-0.75) > 1e-12 {
		t.Fatalf("Precision = %f, want 0.75", res.Precision)
	}
}

func TestPrecisionSkipsTinyAndUnlabeled(t *testing.T) {
	labels := []model.ScenarioID{0, 0, model.NoScenario, 1}
	placement := []model.TopicID{0, 0, 0, 1} // topic 1 has 1 labeled item
	tx, corpus := makeWorld(labels, placement, 2)
	res, err := Precision(tx, corpus, PrecisionConfig{MinTopicItems: 2, Seed: 1, RootTopicsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TopicsEvaluated != 1 {
		t.Fatalf("TopicsEvaluated = %d, want 1 (tiny topic skipped)", res.TopicsEvaluated)
	}
	if res.ItemsJudged != 2 {
		t.Fatalf("ItemsJudged = %d, want 2 (unlabeled item skipped)", res.ItemsJudged)
	}
}

func TestPrecisionSampling(t *testing.T) {
	// 10 topics of 20 items each; sample 4 topics × 5 items.
	var labels []model.ScenarioID
	var placement []model.TopicID
	for tpc := 0; tpc < 10; tpc++ {
		for i := 0; i < 20; i++ {
			labels = append(labels, model.ScenarioID(tpc))
			placement = append(placement, model.TopicID(tpc))
		}
	}
	tx, corpus := makeWorld(labels, placement, 10)
	res, err := Precision(tx, corpus, PrecisionConfig{
		SampleTopics: 4, ItemsPerTopic: 5, MinTopicItems: 1, Seed: 3, RootTopicsOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TopicsEvaluated != 4 {
		t.Fatalf("TopicsEvaluated = %d, want 4", res.TopicsEvaluated)
	}
	if res.ItemsJudged != 20 {
		t.Fatalf("ItemsJudged = %d, want 20", res.ItemsJudged)
	}
	if res.Precision != 1 {
		t.Fatalf("Precision = %f, want 1", res.Precision)
	}
}

func TestPrecisionErrors(t *testing.T) {
	tx, corpus := makeWorld([]model.ScenarioID{0}, []model.TopicID{taxonomy.NoTopic}, 0)
	if _, err := Precision(tx, corpus, DefaultPrecisionConfig()); err == nil {
		t.Fatal("empty taxonomy accepted")
	}
	tx2, corpus2 := makeWorld([]model.ScenarioID{model.NoScenario}, []model.TopicID{0}, 1)
	if _, err := Precision(tx2, corpus2, PrecisionConfig{MinTopicItems: 0, RootTopicsOnly: true}); err == nil {
		t.Fatal("all-unlabeled corpus accepted")
	}
	tx3, corpus3 := makeWorld([]model.ScenarioID{0}, []model.TopicID{0}, 1)
	if _, err := Precision(tx3, corpus3, PrecisionConfig{SampleTopics: -1}); err == nil {
		t.Fatal("negative sample accepted")
	}
}

func TestNMIPerfectAndIndependent(t *testing.T) {
	perfect, err := LabelsPartition([]int32{0, 0, 1, 1}, []model.ScenarioID{5, 5, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := perfect.NMI(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI(perfect) = %f, want 1", got)
	}
	// One cluster holding everything: MI = 0.
	single, err := LabelsPartition([]int32{0, 0, 0, 0}, []model.ScenarioID{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := single.NMI(); got > 1e-9 {
		t.Fatalf("NMI(single cluster) = %f, want 0", got)
	}
}

// TestNMIBitStable pins NMI's summation order: on a partition with
// hundreds of clusters — where map-order sums differ in the last bits —
// every call returns the same bit pattern.
func TestNMIBitStable(t *testing.T) {
	const n, clusters, labels = 5000, 240, 37
	pred := make([]int32, n)
	truth := make([]model.ScenarioID, n)
	for i := range pred {
		pred[i] = int32((i*7 + i/13) % clusters)
		truth[i] = model.ScenarioID((i*13 + i/11) % labels)
	}
	p, err := LabelsPartition(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Float64bits(p.NMI())
	for i := 1; i < 50; i++ {
		if got := math.Float64bits(p.NMI()); got != want {
			t.Fatalf("call %d: NMI bits %#x, first call %#x", i, got, want)
		}
	}
}

func TestNMIBetterPartitionScoresHigher(t *testing.T) {
	truth := []model.ScenarioID{0, 0, 0, 1, 1, 1}
	good, err := LabelsPartition([]int32{0, 0, 0, 1, 1, 1}, truth)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := LabelsPartition([]int32{0, 1, 0, 1, 0, 1}, truth)
	if err != nil {
		t.Fatal(err)
	}
	if good.NMI() <= bad.NMI() {
		t.Fatalf("NMI good %f <= bad %f", good.NMI(), bad.NMI())
	}
}

func TestPurity(t *testing.T) {
	p, err := LabelsPartition([]int32{0, 0, 0, 1, 1}, []model.ScenarioID{7, 7, 8, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 0: majority 7 (2/3). Cluster 1: majority 9 (2/2). 4/5.
	if got := p.Purity(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Purity = %f, want 0.8", got)
	}
}

func TestLabelsPartitionFiltersUnlabeled(t *testing.T) {
	p, err := LabelsPartition([]int32{0, 1, 2}, []model.ScenarioID{0, model.NoScenario, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 2 {
		t.Fatalf("N = %d, want 2", p.N())
	}
	if _, err := LabelsPartition([]int32{0}, []model.ScenarioID{0, 1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := LabelsPartition([]int32{0}, []model.ScenarioID{model.NoScenario}); err == nil {
		t.Fatal("all-unlabeled accepted")
	}
}

func TestTopicPartition(t *testing.T) {
	labels := []model.ScenarioID{0, 0, 1, 1, model.NoScenario}
	placement := []model.TopicID{0, 0, 1, 1, taxonomy.NoTopic}
	tx, corpus := makeWorld(labels, placement, 2)
	p, err := TopicPartition(tx, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 4 {
		t.Fatalf("N = %d, want 4", p.N())
	}
	if got := p.NMI(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI = %f, want 1", got)
	}
}
