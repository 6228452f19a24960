package taxonomy

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/dendrogram"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/phac"
	"shoal/internal/synth"
)

// buildReference is the map-and-sort assembly Build replaced, kept as the
// oracle: groups in a map keyed by cut label, labels and every per-topic
// list put in order by sort.Slice, categories collected in a set per
// topic, items appended through every ancestor.
func buildReference(d *dendrogram.Dendrogram, es *entitygraph.EntitySet, corpus *model.Corpus, cfg Config) *Taxonomy {
	tx := &Taxonomy{
		EntityTopic: make([]model.TopicID, len(es.Entities)),
		ItemTopic:   make([]model.TopicID, len(corpus.Items)),
		Levels:      append([]float64(nil), cfg.Levels...),
	}
	for i := range tx.ItemTopic {
		tx.ItemTopic[i] = NoTopic
	}
	prevAssign := make([]model.TopicID, len(es.Entities))
	for i := range prevAssign {
		prevAssign[i] = NoTopic
	}
	for level, threshold := range cfg.Levels {
		labels := d.CutAt(threshold)
		groups := make(map[int32][]model.EntityID)
		for ent, lab := range labels {
			groups[lab] = append(groups[lab], model.EntityID(ent))
		}
		labs := make([]int32, 0, len(groups))
		for lab := range groups {
			labs = append(labs, lab)
		}
		sort.Slice(labs, func(i, j int) bool { return labs[i] < labs[j] })
		assign := append([]model.TopicID(nil), prevAssign...)
		for _, lab := range labs {
			members := groups[lab]
			if len(members) < minTopicSize {
				continue
			}
			parent := NoTopic
			if level > 0 {
				parent = prevAssign[members[0]]
				if parent == NoTopic || len(tx.Topics[parent].Entities) == len(members) {
					continue
				}
			}
			id := model.TopicID(len(tx.Topics))
			depth := 0
			if parent != NoTopic {
				depth = tx.Topics[parent].Level + 1
				tx.Topics[parent].Children = append(tx.Topics[parent].Children, id)
			}
			tx.Topics = append(tx.Topics, Topic{ID: id, Parent: parent, Level: depth, Sim: threshold, Entities: members})
			for _, e := range members {
				assign[e] = id
			}
		}
		prevAssign = assign
	}
	copy(tx.EntityTopic, prevAssign)
	for e, tid := range tx.EntityTopic {
		if tid == NoTopic {
			continue
		}
		for _, it := range es.Entities[e].Items {
			tx.ItemTopic[it] = tid
		}
	}
	catSets := make([]map[model.CategoryID]bool, len(tx.Topics))
	for i := range catSets {
		catSets[i] = make(map[model.CategoryID]bool)
	}
	for e := range es.Entities {
		for tid := tx.EntityTopic[e]; tid != NoTopic; tid = tx.Topics[tid].Parent {
			t := &tx.Topics[tid]
			t.Items = append(t.Items, es.Entities[e].Items...)
			catSets[tid][es.Entities[e].Category] = true
		}
	}
	for i := range tx.Topics {
		t := &tx.Topics[i]
		sort.Slice(t.Items, func(a, b int) bool { return t.Items[a] < t.Items[b] })
		for c := range catSets[i] {
			t.Categories = append(t.Categories, c)
		}
		sort.Slice(t.Categories, func(a, b int) bool { return t.Categories[a] < t.Categories[b] })
	}
	return tx
}

// assertMatchesReference builds the taxonomy both ways and holds them
// equal as values (reflect.DeepEqual tells nil from empty) and as gob and
// JSON bytes. It returns the built taxonomy.
func assertMatchesReference(t *testing.T, name string, d *dendrogram.Dendrogram, es *entitygraph.EntitySet, corpus *model.Corpus, cfg Config) *Taxonomy {
	t.Helper()
	got, err := Build(context.Background(), d, es, corpus, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := buildReference(d, es, corpus, cfg)
	if !reflect.DeepEqual(got, want) {
		for i := range want.Topics {
			if i < len(got.Topics) && !reflect.DeepEqual(got.Topics[i], want.Topics[i]) {
				t.Fatalf("%s: topic %d\n got %#v\nwant %#v", name, i, got.Topics[i], want.Topics[i])
			}
		}
		t.Fatalf("%s: taxonomy differs from the reference (%d topics, reference %d)", name, len(got.Topics), len(want.Topics))
	}
	var g, w bytes.Buffer
	if err := got.Save(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: gob bytes differ from the reference's", name)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: built taxonomy fails Validate: %v", name, err)
	}
	t.Logf("%s: %d entities, %d topics", name, len(es.Entities), len(got.Topics))
	return got
}

// randomWorld is n items over a few categories whose attributes group
// them into entities of one to several items, and a random dendrogram
// over those entities merging at sims drawn from a few repeated values.
func randomWorld(t *testing.T, rng *rand.Rand, n int) (*dendrogram.Dendrogram, *entitygraph.EntitySet, *model.Corpus) {
	t.Helper()
	corpus := &model.Corpus{}
	for c := 0; c < 5; c++ {
		corpus.Categories = append(corpus.Categories, model.Category{ID: model.CategoryID(c), Name: fmt.Sprintf("cat%d", c), Parent: model.RootCategory})
	}
	for i := 0; i < n; i++ {
		corpus.Items = append(corpus.Items, model.Item{
			ID: model.ItemID(i), Title: "item", Category: model.CategoryID(rng.Intn(5)),
			Attrs: []string{fmt.Sprint(rng.Intn(n/2 + 1))}, PriceCents: 100,
		})
	}
	es, err := entitygraph.BuildEntities(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	leaves := len(es.Entities)
	d := &dendrogram.Dendrogram{Leaves: leaves}
	live := make([]int32, leaves)
	for i := range live {
		live[i] = int32(i)
	}
	merges := leaves - 1 - rng.Intn(3) // sometimes a forest of a few roots
	for i := 0; i < merges; i++ {
		a := rng.Intn(len(live))
		live[a], live[len(live)-1] = live[len(live)-1], live[a]
		b := rng.Intn(len(live) - 1)
		id := int32(leaves + i)
		sim := []float64{0.2, 0.3, 0.5, 0.5, 0.7, 0.9}[rng.Intn(6)]
		d.Merges = append(d.Merges, dendrogram.Merge{A: live[len(live)-1], B: live[b], New: id, Sim: sim, Round: int32(i)})
		live[b] = id
		live = live[:len(live)-1]
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, es, corpus
}

// generatedWorld runs a synthetic catalog through entity formation, the
// query-driven entity graph and Parallel HAC, the way the pipeline does
// with embeddings off.
func generatedWorld(t *testing.T, gen synth.Config) (*dendrogram.Dendrogram, *entitygraph.EntitySet, *model.Corpus) {
	t.Helper()
	ctx := context.Background()
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	es, err := entitygraph.BuildEntities(ctx, corpus)
	if err != nil {
		t.Fatal(err)
	}
	clicks := bipartite.New(7)
	if err := clicks.AddAll(corpus.Clicks); err != nil {
		t.Fatal(err)
	}
	gcfg := entitygraph.DefaultConfig()
	gcfg.MinSimilarity, gcfg.MaxQueryFanout = 0.25, 50
	res, err := entitygraph.Build(ctx, es, clicks, nil, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(es.Entities))
	for i := range sizes {
		sizes[i] = es.Entities[i].Size()
	}
	cl, err := phac.Cluster(ctx, res.Graph, sizes, phac.Config{StopThreshold: 0.12, DiffusionRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cl.Dendrogram, es, corpus
}

// TestBuildAllocs: assembly allocates a fixed few arrays per level —
// the level's member array, the topic records' growth — and a fixed few
// per build, whatever the number of topics: the cuts share one label
// array and one union-find (the map-and-sort assembly took ≈14 000 on
// the benchmark fixture's catalog, and a cut of its own per level made
// it 5 per level and 15 per build).
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation moves closures to the heap")
	}
	const perLevel, perBuild = 2, 17
	d, es, corpus := fixture(t)
	small := Config{Levels: []float64{0.4, 0.75}}
	gen := synth.DefaultConfig()
	gen.Scenarios, gen.ItemsPerScenario, gen.QueriesPerScenario, gen.NoiseItems, gen.HeadQueries = 32, 150, 30, 160, 20
	bd, bes, bcorpus := generatedWorld(t, gen)
	big := Config{Levels: []float64{0.12, 0.3, 0.5}}
	for _, w := range []struct {
		name   string
		d      *dendrogram.Dendrogram
		es     *entitygraph.EntitySet
		corpus *model.Corpus
		cfg    Config
	}{{"fixture", d, es, corpus, small}, {"benchmark fixture catalog", bd, bes, bcorpus, big}} {
		var topics int
		allocs := testing.AllocsPerRun(5, func() {
			tx, err := Build(context.Background(), w.d, w.es, w.corpus, w.cfg)
			if err != nil {
				t.Fatal(err)
			}
			topics = len(tx.Topics)
		})
		if ceiling := float64(perLevel*len(w.cfg.Levels) + perBuild); allocs > ceiling {
			t.Errorf("%s: Build allocated %.0f objects for %d levels and %d topics, want <= %.0f", w.name, allocs, len(w.cfg.Levels), topics, ceiling)
		}
	}
}

// TestTaxonomyMatchesReference holds the counting assembly to the
// map-and-sort one it replaced on the six-entity fixture, a hand-built
// three-level dendrogram with tied sims and clusters below minTopicSize,
// random dendrograms over multi-item entities, the benchmark fixture's
// catalog and E4's large catalog.
func TestTaxonomyMatchesReference(t *testing.T) {
	d, es, corpus := fixture(t)
	for _, cfg := range []Config{
		{Levels: []float64{0.4, 0.75}},
		{Levels: []float64{0.4, 0.65}},
		{Levels: []float64{0.5, 0.7, 0.8}},
		{Levels: []float64{0.9}},
		DefaultConfig(),
	} {
		assertMatchesReference(t, fmt.Sprintf("fixture %v", cfg), d, es, corpus, cfg)
	}

	// Twelve singleton entities, every merge sim equal to a cut level.
	// At 0.3: roots {0-5,9-11} and {6,7,8}. At 0.5: {0,1,2}, {3,4,5},
	// {9,10,11} below the first; {6,7,8} is its root again (skipped).
	// At 0.7: {3,4} below {3,4,5} with {5} too small, and {6,7} directly
	// below the second root — a depth-1 topic cut at the third level.
	c3 := &model.Corpus{}
	for c := 0; c < 3; c++ {
		c3.Categories = append(c3.Categories, model.Category{ID: model.CategoryID(c), Name: fmt.Sprint("cat", c), Parent: model.RootCategory})
	}
	for i := 0; i < 12; i++ {
		c3.Items = append(c3.Items, model.Item{ID: model.ItemID(i), Title: "x", Category: model.CategoryID(i % 3), Attrs: []string{fmt.Sprint(i)}, PriceCents: 100})
	}
	es3, err := entitygraph.BuildEntities(context.Background(), c3)
	if err != nil {
		t.Fatal(err)
	}
	hand := &dendrogram.Dendrogram{Leaves: 12, Merges: []dendrogram.Merge{
		{A: 0, B: 1, New: 12, Sim: 0.9},
		{A: 12, B: 2, New: 13, Sim: 0.7},
		{A: 3, B: 4, New: 14, Sim: 0.7},
		{A: 6, B: 7, New: 15, Sim: 0.7},
		{A: 9, B: 10, New: 16, Sim: 0.7},
		{A: 16, B: 11, New: 17, Sim: 0.7},
		{A: 14, B: 5, New: 18, Sim: 0.5},
		{A: 15, B: 8, New: 19, Sim: 0.5},
		{A: 13, B: 18, New: 20, Sim: 0.3},
		{A: 20, B: 17, New: 21, Sim: 0.3},
	}}
	if err := hand.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Levels: []float64{0.3, 0.5, 0.7}},
		{Levels: []float64{0.3, 0.5, 0.7, 0.9}},
		{Levels: []float64{0.5, 0.7}},
	} {
		tx := assertMatchesReference(t, fmt.Sprintf("hand-built %v", cfg), hand, es3, c3, cfg)
		if len(cfg.Levels) == 3 && len(tx.Topics) != 7 {
			t.Fatalf("hand-built dendrogram gave %d topics, want the 7 of the comment above", len(tx.Topics))
		}
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		d, es, corpus := randomWorld(t, rng, 1+rng.Intn(80))
		cfg := Config{Levels: []float64{0.3, 0.5, 0.7}}
		assertMatchesReference(t, fmt.Sprintf("random trial %d", trial), d, es, corpus, cfg)
	}

	levels := []float64{0.12, 0.3, 0.5}
	gen := synth.DefaultConfig()
	gen.Scenarios, gen.ItemsPerScenario, gen.QueriesPerScenario, gen.NoiseItems, gen.HeadQueries = 32, 150, 30, 160, 20
	d, es, corpus = generatedWorld(t, gen)
	assertMatchesReference(t, "benchmark fixture catalog", d, es, corpus, Config{Levels: levels})
	gen = synth.DefaultConfig()
	gen.Scenarios, gen.ItemsPerScenario, gen.QueriesPerScenario, gen.NoiseItems, gen.HeadQueries = 120, 250, 50, 600, 60
	d, es, corpus = generatedWorld(t, gen)
	assertMatchesReference(t, "E4 large catalog", d, es, corpus, Config{Levels: levels})
}
