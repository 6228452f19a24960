package taxonomy

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"shoal/internal/dendrogram"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
)

// fixture builds a small world: 6 entities (one item each), a dendrogram
// merging {0,1} and {2,3} tightly (0.8), then together loosely (0.5),
// with {4,5} a separate root pair (0.7).
func fixture(t testing.TB) (*dendrogram.Dendrogram, *entitygraph.EntitySet, *model.Corpus) {
	t.Helper()
	corpus := &model.Corpus{
		Categories: []model.Category{
			{ID: 0, Name: "Dress", Parent: model.RootCategory},
			{ID: 1, Name: "Sunblock", Parent: model.RootCategory},
			{ID: 2, Name: "Backpack", Parent: model.RootCategory},
		},
		Items: []model.Item{
			{ID: 0, Title: "beach dress", Category: 0, PriceCents: 100},
			{ID: 1, Title: "beach gown", Category: 0, PriceCents: 10000},
			{ID: 2, Title: "sunblock", Category: 1, PriceCents: 100},
			{ID: 3, Title: "sun spray", Category: 1, PriceCents: 10000},
			{ID: 4, Title: "trek pack", Category: 2, PriceCents: 100},
			{ID: 5, Title: "alpine pack", Category: 2, PriceCents: 10000},
		},
	}
	es, err := entitygraph.BuildEntities(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(es.Entities) != 6 {
		t.Fatalf("expected 6 singleton entities, got %d", len(es.Entities))
	}
	d := &dendrogram.Dendrogram{
		Leaves: 6,
		Merges: []dendrogram.Merge{
			{A: 0, B: 1, New: 6, Sim: 0.8, Round: 0},
			{A: 2, B: 3, New: 7, Sim: 0.8, Round: 0},
			{A: 4, B: 5, New: 8, Sim: 0.7, Round: 0},
			{A: 6, B: 7, New: 9, Sim: 0.5, Round: 1},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, es, corpus
}

func build(t *testing.T, cfg Config) (*Taxonomy, *model.Corpus) {
	t.Helper()
	d, es, corpus := fixture(t)
	tx, err := Build(context.Background(), d, es, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Validate(); err != nil {
		t.Fatalf("invalid taxonomy: %v", err)
	}
	return tx, corpus
}

func TestBuildTree(t *testing.T) {
	tx, _ := build(t, Config{Levels: []float64{0.4, 0.75}, MinTopicSize: 2})
	roots := tx.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots = %v, want 2 roots", roots)
	}
	// Root 0: entities {0,1,2,3}; its children should be {0,1} and {2,3}.
	var big *Topic
	for _, r := range roots {
		tp, err := tx.Topic(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(tp.Entities) == 4 {
			big = tp
		}
	}
	if big == nil {
		t.Fatalf("no 4-entity root found: %+v", tx.Topics)
	}
	if len(big.Children) != 2 {
		t.Fatalf("big root children = %v, want 2", big.Children)
	}
	for _, c := range big.Children {
		child := tx.Topics[c]
		if len(child.Entities) != 2 {
			t.Fatalf("child %d has %d entities, want 2", c, len(child.Entities))
		}
		if child.Parent != big.ID || child.Level != 1 {
			t.Fatalf("child %d parent/level wrong: %+v", c, child)
		}
	}
	// Categories of the big root span Dress and Sunblock.
	if !reflect.DeepEqual(big.Categories, []model.CategoryID{0, 1}) {
		t.Fatalf("big root categories = %v, want [0 1]", big.Categories)
	}
}

func TestBuildAssignsDeepestTopic(t *testing.T) {
	tx, _ := build(t, Config{Levels: []float64{0.4, 0.75}, MinTopicSize: 2})
	for e := 0; e < 4; e++ {
		tid := tx.EntityTopic[e]
		if tid == NoTopic {
			t.Fatalf("entity %d unassigned", e)
		}
		if tx.Topics[tid].Level != 1 {
			t.Fatalf("entity %d at level %d, want deepest level 1", e, tx.Topics[tid].Level)
		}
	}
	// Items inherit entity topics.
	for it := 0; it < 6; it++ {
		if tx.ItemTopic[it] != tx.EntityTopic[it] {
			t.Fatalf("item %d topic %d != entity topic %d", it, tx.ItemTopic[it], tx.EntityTopic[it])
		}
	}
}

func TestBuildSkipsIdenticalChild(t *testing.T) {
	// {4,5} cluster is identical at level 0 (0.4) and level 1 (0.65):
	// only one topic should exist for it.
	tx, _ := build(t, Config{Levels: []float64{0.4, 0.65}, MinTopicSize: 2})
	count := 0
	for i := range tx.Topics {
		if len(tx.Topics[i].Entities) == 2 && tx.Topics[i].Entities[0] == 4 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("pair {4,5} appears in %d topics, want 1", count)
	}
}

func TestBuildMinTopicSize(t *testing.T) {
	tx, _ := build(t, Config{Levels: []float64{0.9}, MinTopicSize: 2})
	// Nothing merges at 0.9, all clusters are singletons < 2.
	if len(tx.Topics) != 0 {
		t.Fatalf("topics = %d, want 0", len(tx.Topics))
	}
	for _, tid := range tx.EntityTopic {
		if tid != NoTopic {
			t.Fatal("entity assigned despite no topics")
		}
	}
}

func TestBuildConfigValidation(t *testing.T) {
	d, es, corpus := fixture(t)
	bad := []Config{
		{Levels: nil, MinTopicSize: 1},
		{Levels: []float64{0.5, 0.4}, MinTopicSize: 1},
		{Levels: []float64{0.5, 0.5}, MinTopicSize: 1},
		{Levels: []float64{-0.1}, MinTopicSize: 1},
		{Levels: []float64{1.2}, MinTopicSize: 1},
		{Levels: []float64{0.5}, MinTopicSize: 0},
	}
	for i, cfg := range bad {
		if _, err := Build(context.Background(), d, es, corpus, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Mismatched leaves.
	d2 := &dendrogram.Dendrogram{Leaves: 3}
	if _, err := Build(context.Background(), d2, es, corpus, DefaultConfig()); err == nil {
		t.Error("mismatched dendrogram accepted")
	}
}

func TestItemsInCategory(t *testing.T) {
	tx, corpus := build(t, Config{Levels: []float64{0.4}, MinTopicSize: 2})
	var big model.TopicID = NoTopic
	for _, r := range tx.Roots() {
		if len(tx.Topics[r].Entities) == 4 {
			big = r
		}
	}
	items, err := tx.ItemsInCategory(big, 1, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, []model.ItemID{2, 3}) {
		t.Fatalf("ItemsInCategory = %v, want [2 3]", items)
	}
	if _, err := tx.ItemsInCategory(99, 0, corpus); err == nil {
		t.Fatal("unknown topic accepted")
	}
}

func TestRootOf(t *testing.T) {
	tx, _ := build(t, Config{Levels: []float64{0.4, 0.75}, MinTopicSize: 2})
	for e := 0; e < 4; e++ {
		tid := tx.EntityTopic[e]
		root, err := tx.RootOf(tid)
		if err != nil {
			t.Fatal(err)
		}
		if tx.Topics[root].Parent != NoTopic {
			t.Fatal("RootOf returned a non-root")
		}
		if len(tx.Topics[root].Entities) != 4 {
			t.Fatalf("root of entity %d has %d entities, want 4", e, len(tx.Topics[root].Entities))
		}
	}
	if _, err := tx.RootOf(404); err == nil {
		t.Fatal("unknown topic accepted")
	}
}

func TestSearcher(t *testing.T) {
	tx, _ := build(t, Config{Levels: []float64{0.4}, MinTopicSize: 2})
	docs := make([][]string, len(tx.Topics))
	for i := range tx.Topics {
		if len(tx.Topics[i].Entities) == 4 {
			docs[i] = []string{"beach", "dress", "sunblock", "trip"}
		} else {
			docs[i] = []string{"mountain", "backpack", "trek"}
		}
	}
	s, err := NewSearcher(context.Background(), tx, docs)
	if err != nil {
		t.Fatal(err)
	}
	hits := s.Search("beach trip", 5)
	if len(hits) == 0 {
		t.Fatal("no hits for beach trip")
	}
	if got := tx.Topics[hits[0].Topic]; len(got.Entities) != 4 {
		t.Fatalf("top hit is wrong topic: %+v", got)
	}
	if len(s.Search("zzzz", 5)) != 0 {
		t.Fatal("nonsense query matched")
	}
	// Mismatched docs rejected.
	if _, err := NewSearcher(context.Background(), tx, docs[:1]); err == nil {
		t.Fatal("mismatched doc count accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tx, _ := build(t, Config{Levels: []float64{0.4, 0.75}, MinTopicSize: 2})
	var buf bytes.Buffer
	if err := tx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tx, got) {
		t.Fatal("gob round trip changed the taxonomy")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not gob")); err == nil {
		t.Fatal("corrupt gob accepted")
	}
	// Structurally invalid but decodable taxonomies, each one edit away
	// from a valid build: roots 0 {0,1,2,3} and 1 {4,5}, topics 2 {0,1}
	// and 3 {2,3} below root 0; entity i holds item i.
	corruptions := map[string]func(tx *Taxonomy){
		"id off its index":           func(tx *Taxonomy) { tx.Topics[0].ID = 5 },
		"parent below NoTopic":       func(tx *Taxonomy) { tx.Topics[2].Parent = -2 },
		"parent out of range":        func(tx *Taxonomy) { tx.Topics[2].Parent = 9 },
		"own parent":                 func(tx *Taxonomy) { tx.Topics[2].Parent = 2 },
		"level skips":                func(tx *Taxonomy) { tx.Topics[2].Level = 2 },
		"root off level 0":           func(tx *Taxonomy) { tx.Topics[0].Level = 1 },
		"parent cycle":               func(tx *Taxonomy) { tx.Topics[0].Parent, tx.Topics[0].Level = 2, 2 },
		"child out of range":         func(tx *Taxonomy) { tx.Topics[0].Children[1] = 7 },
		"child below NoTopic":        func(tx *Taxonomy) { tx.Topics[0].Children[0] = -3 },
		"child not pointing back":    func(tx *Taxonomy) { tx.Topics[0].Children[0] = 1 },
		"child repeated":             func(tx *Taxonomy) { tx.Topics[0].Children[1] = 2 },
		"child missing":              func(tx *Taxonomy) { tx.Topics[0].Children = tx.Topics[0].Children[:1] },
		"member missing from parent": func(tx *Taxonomy) { tx.Topics[2].Entities[1] = 4 },
		"entity out of range":        func(tx *Taxonomy) { tx.Topics[1].Entities[1] = 6 },
		"entities descending":        func(tx *Taxonomy) { tx.Topics[1].Entities[0], tx.Topics[1].Entities[1] = 5, 4 },
		"items descending":           func(tx *Taxonomy) { tx.Topics[0].Items[0], tx.Topics[0].Items[1] = 1, 0 },
		"item repeated":              func(tx *Taxonomy) { tx.Topics[0].Items[1] = 0 },
		"item out of range":          func(tx *Taxonomy) { tx.Topics[1].Items[1] = 6 },
		"categories descending":      func(tx *Taxonomy) { tx.Topics[0].Categories[0], tx.Topics[0].Categories[1] = 1, 0 },
		"category negative":          func(tx *Taxonomy) { tx.Topics[0].Categories[0] = -1 },
		"entity topic below NoTopic": func(tx *Taxonomy) { tx.EntityTopic[0] = -3 },
		"entity topic out of range":  func(tx *Taxonomy) { tx.EntityTopic[0] = 4 },
		"entity placed elsewhere":    func(tx *Taxonomy) { tx.EntityTopic[0] = 3 },
		"item topic below NoTopic":   func(tx *Taxonomy) { tx.ItemTopic[0] = -2 },
		"item topic out of range":    func(tx *Taxonomy) { tx.ItemTopic[0] = 4 },
		"item placed elsewhere":      func(tx *Taxonomy) { tx.ItemTopic[0] = 3 },
		"item placed under no topic": func(tx *Taxonomy) { tx.ItemTopic[5] = NoTopic },
	}
	for name, corrupt := range corruptions {
		tx, _ := build(t, Config{Levels: []float64{0.4, 0.75}, MinTopicSize: 2})
		if len(tx.Topics) != 4 || !reflect.DeepEqual(tx.Topics[0].Children, []model.TopicID{2, 3}) || tx.Topics[1].Parent != NoTopic {
			t.Fatalf("fixture taxonomy changed shape: %+v", tx.Topics)
		}
		corrupt(tx)
		var gb bytes.Buffer
		if err := tx.Save(&gb); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&gb); err == nil {
			t.Errorf("%s: corrupt gob taxonomy accepted", name)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to the gob decoder: it may not panic,
// and whatever Validate lets through must be a forest — RootOf answers
// for every topic. The seeds are a valid taxonomy, two that decode and
// fail Validate, and a truncated encoding.
func FuzzLoad(f *testing.F) {
	d, es, corpus := fixture(f)
	seed := func(corrupt func(tx *Taxonomy)) []byte {
		tx, err := Build(context.Background(), d, es, corpus, Config{Levels: []float64{0.4, 0.75}, MinTopicSize: 2})
		if err != nil {
			f.Fatal(err)
		}
		tx.Topics[0].Description, tx.Topics[0].DescQueries = "beach trip", []string{"beach trip", "sunblock"}
		corrupt(tx)
		var gb bytes.Buffer
		if err := tx.Save(&gb); err != nil {
			f.Fatal(err)
		}
		return gb.Bytes()
	}
	valid := seed(func(*Taxonomy) {})
	f.Add(valid)
	f.Add(seed(func(tx *Taxonomy) { tx.Topics[2].Parent = -2 }))
	f.Add(seed(func(tx *Taxonomy) { tx.Topics[0].Children = []model.TopicID{5} }))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range tx.Topics {
			if _, err := tx.RootOf(model.TopicID(i)); err != nil {
				t.Fatalf("accepted taxonomy: RootOf(%d): %v", i, err)
			}
		}
	})
}
