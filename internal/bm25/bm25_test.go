package bm25

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func testDocs() [][]string {
	return [][]string{
		{"beach", "dress", "swimwear", "sunblock", "beach"},     // 0: beach topic
		{"hiking", "boots", "alpenstock", "backpack", "jacket"}, // 1: mountain topic
		{"beach", "pants", "swimwear", "sunglasses"},            // 2: beach topic
		{"router", "tshirt", "balloon", "chopsticks", "tripod"}, // 3: misc
		{}, // 4: empty
	}
}

func buildIdx(t *testing.T) *Index {
	t.Helper()
	idx, err := Build(testDocs(), DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, DefaultConfig()); err == nil {
		t.Fatal("Build(nil) = nil error, want error")
	}
	if _, err := Build(testDocs(), Config{K1: -1, B: 0.5}); err == nil {
		t.Fatal("Build with K1<0 = nil error")
	}
	if _, err := Build(testDocs(), Config{K1: 1, B: 1.5}); err == nil {
		t.Fatal("Build with B>1 = nil error")
	}
}

func TestScoreRanksRelevantDocFirst(t *testing.T) {
	idx := buildIdx(t)
	q := []string{"beach", "swimwear"}
	s0, err := idx.Score(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := idx.Score(q, 1)
	s3, _ := idx.Score(q, 3)
	if s0 <= s1 || s0 <= s3 {
		t.Fatalf("Score(beach swimwear): doc0=%.3f doc1=%.3f doc3=%.3f, want doc0 highest", s0, s1, s3)
	}
	if s1 != 0 {
		t.Fatalf("doc1 shares no terms, score = %.3f, want 0", s1)
	}
}

func TestScoreOutOfRange(t *testing.T) {
	idx := buildIdx(t)
	if _, err := idx.Score([]string{"beach"}, -1); err == nil {
		t.Fatal("Score(doc=-1) = nil error")
	}
	if _, err := idx.Score([]string{"beach"}, 99); err == nil {
		t.Fatal("Score(doc=99) = nil error")
	}
}

func TestScoreUnknownTermIsZero(t *testing.T) {
	idx := buildIdx(t)
	s, err := idx.Score([]string{"zebra"}, 0)
	if err != nil || s != 0 {
		t.Fatalf("Score(zebra) = %f,%v want 0,nil", s, err)
	}
}

func TestScoreAllSparse(t *testing.T) {
	idx := buildIdx(t)
	hits := idx.ScoreAll([]string{"beach"})
	if len(hits) != 2 {
		t.Fatalf("ScoreAll(beach) touched %d docs, want 2", len(hits))
	}
	for i, h := range hits {
		if h.Doc == 1 {
			t.Fatal("ScoreAll(beach) includes doc 1 which lacks the term")
		}
		if i > 0 && hits[i-1].Doc >= h.Doc {
			t.Fatalf("ScoreAll hits not in ascending doc order: %v", hits)
		}
		// ScoreAll must agree with Score exactly: both accumulate per
		// document in first-occurrence term order.
		want, err := idx.Score([]string{"beach"}, h.Doc)
		if err != nil {
			t.Fatal(err)
		}
		if h.Score != want {
			t.Fatalf("ScoreAll[%d]=%v disagrees with Score=%v", h.Doc, h.Score, want)
		}
	}
}

// TestScoreAllPooledScratch locks in the satellite win: repeated
// ScoreAll calls must reuse the pooled dense scratch, allocating only
// the returned hit slice.
func TestScoreAllPooledScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool caching is disabled under the race detector")
	}
	idx := buildIdx(t)
	q := []string{"beach", "swimwear", "boots"}
	idx.ScoreAll(q) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		idx.ScoreAll(q)
	})
	if allocs > 1 {
		t.Fatalf("ScoreAll allocated %.1f objects per call, want <= 1 (the result slice)", allocs)
	}
	// Scratch reuse must not leak scores across calls.
	first := idx.ScoreAll(q)
	second := idx.ScoreAll(q)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("ScoreAll not idempotent: %v vs %v", first[i], second[i])
		}
	}
}

// TestAppendTopKAllocFree: the id form with a reused dst is what a
// search request runs, and it allocates nothing.
func TestAppendTopKAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool caching is disabled under the race detector")
	}
	idx := buildIdx(t)
	var terms []uint32
	for _, tok := range []string{"beach", "swimwear", "beach"} {
		id, _ := idx.Vocab().ID(tok)
		terms = append(terms, uint32(id))
	}
	dst := idx.AppendTopK(nil, terms, 5) // warm the pool, size dst
	if allocs := testing.AllocsPerRun(50, func() {
		dst = idx.AppendTopK(dst[:0], terms, 5)
	}); allocs != 0 {
		t.Fatalf("AppendTopK allocated %.1f objects per call, want 0", allocs)
	}
}

func TestScoreDedupsQueryTerms(t *testing.T) {
	idx := buildIdx(t)
	s1, _ := idx.Score([]string{"beach"}, 0)
	s2, _ := idx.Score([]string{"beach", "beach", "beach"}, 0)
	if s1 != s2 {
		t.Fatalf("repeated query terms changed score: %f vs %f", s1, s2)
	}
}

func TestTopK(t *testing.T) {
	idx := buildIdx(t)
	hits := idx.TopK([]string{"beach", "swimwear"}, 2)
	if len(hits) != 2 {
		t.Fatalf("TopK returned %d hits, want 2", len(hits))
	}
	if hits[0].Doc != 0 {
		t.Fatalf("TopK best = doc %d, want 0", hits[0].Doc)
	}
	if hits[0].Score < hits[1].Score {
		t.Fatal("TopK not sorted descending")
	}
	if got := idx.TopK([]string{"zebra"}, 5); len(got) != 0 {
		t.Fatalf("TopK(zebra) = %v, want empty", got)
	}
}

func TestTermFrequencySaturation(t *testing.T) {
	// More occurrences should score higher, but sub-linearly.
	docs := [][]string{
		{"x"},
		{"x", "x"},
		{"x", "x", "x", "x", "x", "x", "x", "x"},
		{"y"},
	}
	idx, err := Build(docs, Config{K1: 1.2, B: 0}) // disable length norm
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := idx.Score([]string{"x"}, 0)
	s2, _ := idx.Score([]string{"x"}, 1)
	s8, _ := idx.Score([]string{"x"}, 2)
	if !(s1 < s2 && s2 < s8) {
		t.Fatalf("scores not increasing with tf: %f %f %f", s1, s2, s8)
	}
	if s2/s1 > 2 {
		t.Fatalf("tf=2 gain %f not saturated (>2x)", s2/s1)
	}
}

func TestLengthNormalizationPrefersShortDocs(t *testing.T) {
	docs := [][]string{
		{"x", "a", "b", "c", "d", "e", "f", "g"},
		{"x", "a"},
	}
	idx, err := Build(docs, Config{K1: 1.2, B: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	long, _ := idx.Score([]string{"x"}, 0)
	short, _ := idx.Score([]string{"x"}, 1)
	if short <= long {
		t.Fatalf("length normalization failed: short=%f long=%f", short, long)
	}
}

// Property: scores are non-negative and finite for arbitrary query shapes.
func TestScoreNonNegativeProperty(t *testing.T) {
	idx := buildIdx(t)
	vocabs := []string{"beach", "dress", "swimwear", "hiking", "zebra", "router", ""}
	f := func(picks []uint8, doc uint8) bool {
		q := make([]string, 0, len(picks))
		for _, p := range picks {
			q = append(q, vocabs[int(p)%len(vocabs)])
		}
		d := int(doc) % idx.N()
		s, err := idx.Score(q, d)
		return err == nil && s >= 0 && !math.IsInf(s, 0) && !math.IsNaN(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyDocNeverMatches(t *testing.T) {
	idx := buildIdx(t)
	s, err := idx.Score([]string{"beach", "hiking", "router"}, 4)
	if err != nil || s != 0 {
		t.Fatalf("empty doc score = %f,%v want 0,nil", s, err)
	}
}

// TestScorerMatchesScoreAll pins the batch Scorer byte-identical to
// per-call ScoreAll across many queries in one session, including
// repeated terms (served from the idf cache) and sessions resumed after
// Close returned a scratch to the pool — through both ScoreAll and
// ScoreIDs, the same query spelled as term ids of Vocab, score bits
// included.
func TestScorerMatchesScoreAll(t *testing.T) {
	docs := [][]string{
		{"red", "shoes", "leather", "red"},
		{"blue", "shoes", "canvas"},
		{"red", "hat", "wool"},
		{},
		{"hat", "hat", "leather", "belt"},
	}
	idx, err := Build(docs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]string{
		{"red", "shoes"},
		{"red", "red", "hat"}, // dup terms
		{"unknown"},
		{"leather", "belt", "shoes"},
		{"red", "shoes"}, // repeated query: cached idf path
		nil,
	}
	for round := 0; round < 3; round++ {
		sc := idx.NewScorer()
		for _, q := range queries {
			want := idx.ScoreAll(q)
			got := sc.ScoreAll(q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d query %v: scorer %v, want %v", round, q, got, want)
			}
			var ids []uint32
			for _, tok := range q {
				if id, ok := idx.Vocab().ID(tok); ok {
					ids = append(ids, uint32(id))
				}
			}
			got = sc.ScoreIDs(ids)
			if len(got) != len(want) {
				t.Fatalf("round %d query %v: ScoreIDs(%v) %v, want %v", round, q, ids, got, want)
			}
			for i := range want {
				if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("round %d query %v: ScoreIDs(%v)[%d] = %+v, want %+v", round, q, ids, i, got[i], want[i])
				}
			}
		}
		sc.Close()
	}
}
