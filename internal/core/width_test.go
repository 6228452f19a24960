package core_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"shoal/internal/benchjson"
	"shoal/internal/bipartite"
	"shoal/internal/bm25"
	"shoal/internal/core"
	"shoal/internal/describe"
	"shoal/internal/synth"
	"shoal/internal/taxonomy"
)

// tailOutput is what the slide's tail produces from one taxonomy:
// descriptions and the described taxonomy (gob), the search documents,
// and the hits of a probe set with their score bits.
type tailOutput struct {
	descs, tx []byte
	docs      [][]uint32
	hits      []string
}

// runTail describes a copy of b's taxonomy with every description
// cleared, assembles its search documents and indexes them, as the
// describe and search-index stages do.
func runTail(t *testing.T, b *core.Build, clicks *bipartite.Graph, cfg core.Config, probes []string) tailOutput {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Taxonomy.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tx, err := taxonomy.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tx.Topics {
		tx.Topics[i].Description, tx.Topics[i].DescQueries = "", nil
	}
	ctx := context.Background()
	descs, err := describe.Describe(ctx, tx, b.Corpus, clicks, cfg.Describe)
	if err != nil {
		t.Fatal(err)
	}
	var out tailOutput
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(descs); err != nil {
		t.Fatal(err)
	}
	out.descs = slices.Clone(buf.Bytes())
	buf.Reset()
	if err := tx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out.tx = buf.Bytes()

	tail := &core.Build{Corpus: b.Corpus, QuerySets: b.QuerySets, Taxonomy: tx, Descriptions: descs}
	docs := tail.SearchDocIDs(cfg.SearchDocTokenCap)
	out.docs = docs
	s, err := taxonomy.NewSearcherFrom(ctx, tx, new(bm25.Builder), bm25.IDs(docs), b.Corpus.Text().Vocab())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		for _, h := range s.Search(p, 10) {
			out.hits = append(out.hits, fmt.Sprintf("%q %d %x", p, h.Topic, math.Float64bits(h.Score)))
		}
	}
	return out
}

// TestTailIdenticalAcrossWidths holds the slide's tail, whose per-topic
// and per-query loops split into GOMAXPROCS ranges, to the same output
// at 1, 2, 3 and 7: descriptions and the described taxonomy byte for
// byte, the search documents id for id, and every probe's search hits
// with their score bits — on a DefaultConfig build of a default
// shoal-gen corpus (30 scenarios) and on the bench fixture.
func TestTailIdenticalAcrossWidths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := core.DefaultConfig()
	corpus, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c30, err := core.Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixture, clicks, _, err := benchjson.FixedWorld()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name   string
		b      *core.Build
		clicks *bipartite.Graph
	}{{"c30", c30, c30.Clicks}, {"fixture", fixture, clicks}} {
		var probes []string
		for i := 0; i < len(w.b.Corpus.Queries); i += 3 {
			probes = append(probes, w.b.Corpus.Queries[i].Text)
		}
		for i := 0; i < len(w.b.Corpus.Items); i += 11 {
			probes = append(probes, w.b.Corpus.Items[i].Title)
		}
		var want tailOutput
		for _, procs := range []int{1, 2, 3, 7} {
			runtime.GOMAXPROCS(procs)
			got := runTail(t, w.b, w.clicks, cfg, probes)
			if procs == 1 {
				if len(got.hits) == 0 || len(got.docs) < 500 {
					t.Fatalf("%s: %d hits over %d topics; the comparison is vacuous", w.name, len(got.hits), len(got.docs))
				}
				t.Logf("%s: %d topics, %d hits", w.name, len(got.docs), len(got.hits))
				want = got
				continue
			}
			if !bytes.Equal(got.descs, want.descs) || !bytes.Equal(got.tx, want.tx) {
				t.Errorf("%s GOMAXPROCS=%d: descriptions differ from GOMAXPROCS=1", w.name, procs)
			}
			if !slices.EqualFunc(got.docs, want.docs, slices.Equal) {
				t.Errorf("%s GOMAXPROCS=%d: search documents differ from GOMAXPROCS=1", w.name, procs)
			}
			if !slices.Equal(got.hits, want.hits) {
				t.Errorf("%s GOMAXPROCS=%d: search hits differ from GOMAXPROCS=1", w.name, procs)
			}
		}
	}
}
