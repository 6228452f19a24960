package benchjson

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shoal/internal/core"
	"shoal/internal/synth"
)

// The fixture cache must reassemble a build whose benchmark-visible
// state is identical to the original: byte-equal graph arrays, equal
// dendrogram/taxonomy/entities, and a searcher that answers queries the
// same way.
func TestFixtureRoundTrip(t *testing.T) {
	gen := synth.DefaultConfig()
	gen.Scenarios = 6
	gen.ItemsPerScenario = 40
	gen.QueriesPerScenario = 10
	gen.NoiseItems = 20
	gen.HeadQueries = 4
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixedWorldConfig()
	cfg.Word2Vec.MinCount = 1
	b, err := core.Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fixture.gob")
	if err := saveFixture(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := loadFixture(path)
	if err != nil {
		t.Fatal(err)
	}

	wo, wn, ww := b.Graph.Adj()
	go_, gn, gw := got.Graph.Adj()
	if !reflect.DeepEqual(wo, go_) || !reflect.DeepEqual(wn, gn) || !reflect.DeepEqual(ww, gw) {
		t.Fatal("graph CSR arrays differ after fixture round trip")
	}
	if !reflect.DeepEqual(b.Dendrogram, got.Dendrogram) {
		t.Fatal("dendrogram differs after fixture round trip")
	}
	// What the fixture stores of the set: a built one also carries its
	// unexported mean-vector cache, which gob rightly drops.
	if !reflect.DeepEqual(b.Entities.Entities, got.Entities.Entities) ||
		!reflect.DeepEqual(b.Entities.ItemEntity, got.Entities.ItemEntity) {
		t.Fatal("entity set differs after fixture round trip")
	}
	if !reflect.DeepEqual(b.Taxonomy, got.Taxonomy) {
		t.Fatal("taxonomy differs after fixture round trip")
	}
	if got.Searcher == nil {
		t.Fatal("fixture load did not reconstruct the searcher")
	}
	probe := corpus.Queries[0].Text
	if !reflect.DeepEqual(b.Searcher.Search(probe, 5), got.Searcher.Search(probe, 5)) {
		t.Fatal("searcher answers differ after fixture round trip")
	}

	// A corrupt cache must be rejected, not half-loaded.
	if err := os.WriteFile(path, []byte("not a fixture"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFixture(path); err == nil {
		t.Fatal("corrupt fixture accepted")
	}
}

// TestFixedWorldDeterministic pins that every BENCH_<pr>.json entry on the
// fixture times the same world: two fresh builds gob-encode to equal
// edges, dendrograms and taxonomies, embeddings included.
func TestFixedWorldDeterministic(t *testing.T) {
	a, err := buildFixedWorld()
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildFixedWorld()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		a, b any
	}{
		{"edges", a.Graph.Edges(), b.Graph.Edges()},
		{"dendrogram", a.Dendrogram, b.Dendrogram},
		{"taxonomy", a.Taxonomy, b.Taxonomy},
	} {
		var ga, gb bytes.Buffer
		if err := gob.NewEncoder(&ga).Encode(c.a); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(&gb).Encode(c.b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ga.Bytes(), gb.Bytes()) {
			t.Fatalf("two fixed-world builds differ in their %s", c.name)
		}
	}
}
