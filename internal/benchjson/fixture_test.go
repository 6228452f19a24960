package benchjson

import (
	"bytes"
	"encoding/gob"
	"testing"
)

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
