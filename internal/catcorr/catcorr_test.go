package catcorr

import (
	"context"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"shoal/internal/model"
	"shoal/internal/taxonomy"
)

// makeTaxonomy builds a taxonomy whose root topics have prescribed
// category sets (topics are hand-assembled; only the fields catcorr reads
// are populated).
func makeTaxonomy(rootCats [][]model.CategoryID) *taxonomy.Taxonomy {
	tx := &taxonomy.Taxonomy{}
	for i, cats := range rootCats {
		tx.Topics = append(tx.Topics, taxonomy.Topic{
			ID:         model.TopicID(i),
			Parent:     taxonomy.NoTopic,
			Categories: cats,
		})
	}
	return tx
}

func TestMineCountsCoOccurrence(t *testing.T) {
	// Categories 1 and 2 co-occur in 3 root topics; 1 and 3 in 1.
	tx := makeTaxonomy([][]model.CategoryID{
		{1, 2}, {1, 2}, {1, 2, 3}, {2, 4},
	})
	g, err := Mine(context.Background(), tx, Config{MinStrength: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []Correlation{{1, 2, 3}, {1, 3, 1}, {2, 3, 1}, {2, 4, 1}}
	if got := g.Pairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("raw counts: Pairs() = %v, want %v", got, want)
	}
	g, err = Mine(context.Background(), tx, Config{MinStrength: 2})
	if err != nil {
		t.Fatal(err)
	}
	want = []Correlation{{1, 2, 3}}
	if got := g.Pairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("threshold 2: Pairs() = %v, want %v", got, want)
	}
	// Both endpoints see the pair; the pair below the threshold is gone.
	if got := g.Related(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("Related(1) = %v, want %v", got, want)
	}
	if got := g.Related(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("Related(2) = %v, want %v", got, want)
	}
	if got := g.Related(3); len(got) != 0 {
		t.Fatalf("Related(3) = %v, want empty", got)
	}
}

func TestMineThresholdIsStrict(t *testing.T) {
	// Paper: "there exists a correlation only if Sc > 10" — strictly
	// greater.
	rootCats := make([][]model.CategoryID, 10)
	for i := range rootCats {
		rootCats[i] = []model.CategoryID{7, 8}
	}
	tx := makeTaxonomy(rootCats)
	g, err := Mine(context.Background(), tx, Config{MinStrength: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Pairs(); len(got) != 0 {
		t.Fatalf("Sc == threshold must not correlate (strict inequality): %v", got)
	}
	// One more topic pushes it over.
	tx2 := makeTaxonomy(append(rootCats, []model.CategoryID{7, 8}))
	g2, err := Mine(context.Background(), tx2, Config{MinStrength: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g2.Pairs(), []Correlation{{7, 8, 11}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Sc = 11 > 10 must correlate: Pairs() = %v, want %v", got, want)
	}
}

func TestMineIgnoresNonRootTopics(t *testing.T) {
	tx := makeTaxonomy([][]model.CategoryID{{1, 2}})
	// Add a child topic with categories {3,4}: must not contribute.
	tx.Topics = append(tx.Topics, taxonomy.Topic{
		ID: 1, Parent: 0, Level: 1, Categories: []model.CategoryID{3, 4},
	})
	tx.Topics[0].Children = []model.TopicID{1}
	g, err := Mine(context.Background(), tx, Config{MinStrength: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Only the root's pair is counted: the child's {3,4} is absent.
	if got, want := g.Pairs(), []Correlation{{1, 2, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Pairs() = %v, want %v", got, want)
	}
}

func TestRelatedSortedByStrength(t *testing.T) {
	tx := makeTaxonomy([][]model.CategoryID{
		{0, 1}, {0, 1}, {0, 1}, // 0-1 x3
		{0, 2}, {0, 2}, // 0-2 x2
		{0, 3}, // 0-3 x1
	})
	g, err := Mine(context.Background(), tx, Config{MinStrength: 0})
	if err != nil {
		t.Fatal(err)
	}
	rel := g.Related(0)
	if len(rel) != 3 {
		t.Fatalf("Related(0) = %v, want 3 entries", rel)
	}
	if other(rel[0], 0) != 1 || rel[0].Strength != 3 {
		t.Fatalf("Related(0)[0] = %+v, want category 1 strength 3", rel[0])
	}
	if other(rel[1], 0) != 2 || other(rel[2], 0) != 3 {
		t.Fatalf("Related(0) order wrong: %v", rel)
	}
	if got := g.Related(99); len(got) != 0 {
		t.Fatalf("Related(unknown) = %v, want empty", got)
	}
}

func TestPairsSortedCanonical(t *testing.T) {
	tx := makeTaxonomy([][]model.CategoryID{
		{5, 2}, {5, 2}, {1, 9}, {1, 9},
	})
	// Note: taxonomy category lists are sorted in real use; emulate.
	for i := range tx.Topics {
		cats := tx.Topics[i].Categories
		if cats[0] > cats[1] {
			cats[0], cats[1] = cats[1], cats[0]
		}
	}
	g, err := Mine(context.Background(), tx, Config{MinStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := g.Pairs()
	want := []Correlation{{A: 1, B: 9, Strength: 2}, {A: 2, B: 5, Strength: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Pairs() = %v, want %v", got, want)
	}
}

func TestMineValidation(t *testing.T) {
	tx := makeTaxonomy(nil)
	if _, err := Mine(context.Background(), tx, Config{MinStrength: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	g, err := Mine(context.Background(), tx, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Pairs()) != 0 {
		t.Fatal("empty taxonomy produced pairs")
	}
}

// refGraph is the map-and-sort graph Mine's arrays replaced: it keeps every
// raw count and sorts on each call. TestMineMatchesMapReference holds Mine
// to it.
type refGraph struct {
	pairs map[[2]model.CategoryID]int
	adj   map[model.CategoryID]map[model.CategoryID]int
	cfg   Config
}

func mineRef(tx *taxonomy.Taxonomy, cfg Config) *refGraph {
	g := &refGraph{
		pairs: make(map[[2]model.CategoryID]int),
		adj:   make(map[model.CategoryID]map[model.CategoryID]int),
		cfg:   cfg,
	}
	for _, root := range tx.Roots() {
		cats := tx.Topics[root].Categories
		for i := 0; i < len(cats); i++ {
			for j := i + 1; j < len(cats); j++ {
				g.pairs[[2]model.CategoryID{cats[i], cats[j]}]++
			}
		}
	}
	for k, n := range g.pairs {
		if n <= cfg.MinStrength {
			continue
		}
		for _, e := range [][2]model.CategoryID{k, {k[1], k[0]}} {
			if g.adj[e[0]] == nil {
				g.adj[e[0]] = make(map[model.CategoryID]int)
			}
			g.adj[e[0]][e[1]] = n
		}
	}
	return g
}

func (g *refGraph) related(c model.CategoryID) []Correlation {
	var out []Correlation
	for o, n := range g.adj[c] {
		out = append(out, Correlation{A: min(c, o), B: max(c, o), Strength: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Strength != out[j].Strength {
			return out[i].Strength > out[j].Strength
		}
		return other(out[i], c) < other(out[j], c)
	})
	return out
}

func (g *refGraph) allPairs() []Correlation {
	var out []Correlation
	for k, n := range g.pairs {
		if n > g.cfg.MinStrength {
			out = append(out, Correlation{A: k[0], B: k[1], Strength: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// TestMineMatchesMapReference compares Pairs and Related for every
// category id (and a few past either end) with the map-backed reference,
// over random root category sets: empty and one-category roots, tied
// strengths from a small id range, and ids with gaps.
func TestMineMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(56, 1))
	for trial := 0; trial < 200; trial++ {
		ids := rng.IntN(12) + 1
		gap := model.CategoryID(rng.IntN(3) + 1)
		var rootCats [][]model.CategoryID
		for r := rng.IntN(40); r > 0; r-- {
			var cats []model.CategoryID
			for c := 0; c < ids; c++ {
				if rng.IntN(3) == 0 {
					cats = append(cats, model.CategoryID(c)*gap)
				}
			}
			rootCats = append(rootCats, cats)
		}
		tx := makeTaxonomy(rootCats)
		maxID := model.CategoryID(ids-1) * gap
		for ms := 0; ms <= 3; ms++ {
			cfg := Config{MinStrength: ms}
			g, err := Mine(context.Background(), tx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := mineRef(tx, cfg)
			pairs, want := g.Pairs(), ref.allPairs()
			if !slices.Equal(pairs, want) {
				t.Fatalf("trial %d MinStrength %d: Pairs() = %v, want %v", trial, ms, pairs, want)
			}
			if cap(pairs) != len(pairs) {
				t.Fatalf("Pairs() has cap %d > len %d", cap(pairs), len(pairs))
			}
			for c := model.CategoryID(-1); c <= maxID+2; c++ {
				got, want := g.Related(c), ref.related(c)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d MinStrength %d: Related(%d) = %v, want %v", trial, ms, c, got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("Related(%d) has cap %d > len %d: an append would overwrite the next span", c, cap(got), len(got))
				}
			}
		}
	}
}
