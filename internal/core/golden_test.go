package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"shoal/internal/model"
	"shoal/internal/synth"
	"shoal/internal/taxonomy"
)

// goldenCorpus is a small catalog whose click log spans ten days: a
// one-shot build windows the last seven, a daily run fills days 0-6 and
// slides through 7-9. Every third title and query is upper-cased and
// carries non-ASCII words, so both tokenizer paths feed the build.
func goldenCorpus(t *testing.T) (*model.Corpus, [][]model.ClickEvent) {
	t.Helper()
	gen := synth.DefaultConfig()
	gen.Scenarios = 10
	gen.ItemsPerScenario = 60
	gen.QueriesPerScenario = 12
	gen.NoiseItems = 20
	gen.HeadQueries = 5
	gen.Days = 10
	c, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Items {
		if i%3 == 0 {
			c.Items[i].Title = strings.ToUpper(c.Items[i].Title) + " Über-SPF50 防晒霜"
		}
	}
	for i := range c.Queries {
		if i%3 == 0 {
			c.Queries[i].Text = strings.ToUpper(c.Queries[i].Text) + " für Ärzte"
		}
	}
	byDay := make([][]model.ClickEvent, gen.Days)
	for _, ev := range c.Clicks {
		byDay[ev.Day] = append(byDay[ev.Day], ev)
	}
	return c, byDay
}

// gob numbers the types a process encodes in first-encode order and
// writes the numbers into the stream, so a taxonomy's bytes depend on
// what the process encoded before it. Encoding one first gives every
// taxonomy the numbers a fresh shoal-build process writes, whichever
// tests ran ahead of the digests.
func init() {
	if err := new(taxonomy.Taxonomy).Save(io.Discard); err != nil {
		panic(err)
	}
}

// buildDigest hashes what a build serves: the gob taxonomy, every
// description's query ids and score bits, the top search hits of every
// corpus query text (topic ids and score bits) and the category
// correlations.
func buildDigest(t *testing.T, h hash.Hash, b *Build) {
	t.Helper()
	var w [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	if err := b.Taxonomy.Save(h); err != nil {
		t.Fatal(err)
	}
	put(uint64(len(b.Descriptions)))
	for _, d := range b.Descriptions {
		put(uint64(d.Topic))
		put(uint64(len(d.QueryIDs)))
		for i, q := range d.QueryIDs {
			put(uint64(q))
			put(math.Float64bits(d.Scores[i]))
		}
	}
	for _, q := range b.Corpus.Queries {
		hits := b.Searcher.Search(q.Text, 5)
		put(uint64(len(hits)))
		for _, hit := range hits {
			put(uint64(hit.Topic))
			put(math.Float64bits(hit.Score))
		}
	}
	pairs := b.Correlations.Pairs()
	put(uint64(len(pairs)))
	for _, p := range pairs {
		put(uint64(p.A))
		put(uint64(p.B))
		put(uint64(p.Strength))
	}
}

// goldenDigests holds TestGoldenBuilds' digests per GOARCH. They differ
// between the two because describe's scores go through math.Exp, which
// amd64 computes in assembly and 386 in Go, and the two round some
// arguments one ulp apart; everything else the digests cover agrees.
var goldenDigests = map[string]map[string]string{
	"amd64": {
		"default":        "8b3afd870d236f34",
		"shoal-build":    "ab37efc2b475a6ba",
		"curated-loaded": "bfc65569a59463cc",
		"no-embeddings":  "b0211eb0f2aefef7",
		"daily":          "9537a1003c9cb8c9",
	},
	"386": {
		"default":        "e4875bed4aad9d50",
		"shoal-build":    "6556fe228fc3aeaa",
		"curated-loaded": "93e37b358af01875",
		"no-embeddings":  "ec0e8bf852621302",
		"daily":          "dce963245aa0bec5",
	},
}

// TestGoldenBuilds pins the bytes of whole builds under the product
// configurations: a change that claims to leave the output alone (a
// kernel, a tokenizer path, an id layout) must keep every digest, on
// amd64 and on 386. The word2vec-free configuration pins what the
// embeddings do not touch, so a mismatch there points past word2vec.
func TestGoldenBuilds(t *testing.T) {
	want, ok := goldenDigests[runtime.GOARCH]
	if !ok {
		t.Skipf("no golden digests for GOARCH=%s", runtime.GOARCH)
	}
	corpus, byDay := goldenCorpus(t)
	buildCfg := DefaultConfig() // as cmd/shoal-build sets it at its flag defaults
	buildCfg.Graph.MinSimilarity = 0.25
	buildCfg.Word2Vec.Epochs = 2
	buildCfg.Word2Vec.Dim = 24
	noEmb := buildCfg
	noEmb.TrainEmbeddings = false
	oneShot := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"shoal-build", buildCfg},
		{"curated-loaded", CuratedConfig(true)},
		{"no-embeddings", noEmb},
	}
	digest := func(builds ...*Build) string {
		h := sha256.New()
		for _, b := range builds {
			buildDigest(t, h, b)
		}
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	for _, tc := range oneShot {
		b, err := Run(corpus, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := digest(b); got != want[tc.name] {
			t.Errorf("%s: build digest %s, want %s", tc.name, got, want[tc.name])
		}
	}

	// Three slides of the daily loop: a cold build, then two patches of
	// its entity graph over the cached embeddings and means.
	p, err := NewDailyPipeline(corpus, buildCfg)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 7; day++ {
		if err := p.IngestDay(byDay[day]); err != nil {
			t.Fatal(err)
		}
	}
	var slides []*Build
	for day := 7; day < 10; day++ {
		b, _, err := p.Step(context.Background(), byDay[day])
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		slides = append(slides, b)
	}
	if got := digest(slides...); got != want["daily"] {
		t.Errorf("daily: digest over three slides %s, want %s", got, want["daily"])
	}
}
