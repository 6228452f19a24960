package bm25

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"shoal/internal/textutil"
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

// termIDs spells a query as the index's term ids, in query order,
// dropping tokens the vocabulary does not know.
func termIDs(idx *Index, query []string) []uint32 {
	var ids []uint32
	for _, tok := range query {
		if id, ok := idx.Vocab().ID(tok); ok {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// scoreOf is the query's BM25 relevance to document doc, read from
// ScoreIDs' sparse hits: 0 when the document shares no term.
func scoreOf(idx *Index, query []string, doc int) float64 {
	for _, h := range idx.ScoreIDs(new(Scratch), termIDs(idx, query)) {
		if h.Doc == doc {
			return h.Score
		}
	}
	return 0
}

func buildIdx(t *testing.T) *Index {
	t.Helper()
	idx, err := Build(testDocs())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("Build(nil) = nil error, want error")
	}
}

func TestScoreRanksRelevantDocFirst(t *testing.T) {
	idx := buildIdx(t)
	q := []string{"beach", "swimwear"}
	s0, s1, s3 := scoreOf(idx, q, 0), scoreOf(idx, q, 1), scoreOf(idx, q, 3)
	if s0 <= s1 || s0 <= s3 {
		t.Fatalf("Score(beach swimwear): doc0=%.3f doc1=%.3f doc3=%.3f, want doc0 highest", s0, s1, s3)
	}
	if s1 != 0 {
		t.Fatalf("doc1 shares no terms, score = %.3f, want 0", s1)
	}
}

func TestScoreUnknownTermIsZero(t *testing.T) {
	idx := buildIdx(t)
	if hits := idx.ScoreIDs(new(Scratch), termIDs(idx, []string{"zebra"})); len(hits) != 0 {
		t.Fatalf("ScoreIDs(zebra) = %v, want no hits", hits)
	}
}

func TestScoreAllSparse(t *testing.T) {
	idx := buildIdx(t)
	hits := idx.ScoreIDs(new(Scratch), termIDs(idx, []string{"beach"}))
	if len(hits) != 2 {
		t.Fatalf("ScoreIDs(beach) touched %d docs, want 2", len(hits))
	}
	// ScoreIDs must agree with TopK exactly: both accumulate per
	// document in first-occurrence term order.
	top := make(map[int]float64)
	for _, h := range idx.TopK(new(Scratch), []string{"beach"}, idx.N()) {
		top[h.Doc] = h.Score
	}
	for i, h := range hits {
		if h.Doc == 1 {
			t.Fatal("ScoreIDs(beach) includes doc 1 which lacks the term")
		}
		if i > 0 && hits[i-1].Doc >= h.Doc {
			t.Fatalf("ScoreIDs hits not in ascending doc order: %v", hits)
		}
		if w, ok := top[h.Doc]; !ok || h.Score != w {
			t.Fatalf("ScoreIDs[%d]=%v disagrees with TopK=%v (hit: %v)", h.Doc, h.Score, w, ok)
		}
	}
}

// TestScoreAllPooledScratch: repeated TopK calls through one scratch
// allocate only the returned hit slice, and ScoreIDs allocates nothing
// per query.
func TestScoreAllPooledScratch(t *testing.T) {
	idx := buildIdx(t)
	q := []string{"beach", "swimwear", "boots"}
	sc := new(Scratch)
	idx.TopK(sc, q, 5) // size the scratch
	if allocs := testing.AllocsPerRun(50, func() { idx.TopK(sc, q, 5) }); allocs > 1 {
		t.Fatalf("TopK allocated %.1f objects per call, want <= 1 (the result slice)", allocs)
	}
	// Scratch reuse must not leak scores across calls.
	first := idx.TopK(sc, q, 5)
	second := idx.TopK(sc, q, 5)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("TopK not idempotent: %v vs %v", first, second)
	}
	ids := termIDs(idx, q)
	idx.ScoreIDs(sc, ids) // size the hit buffer
	if allocs := testing.AllocsPerRun(50, func() { idx.ScoreIDs(sc, ids) }); allocs != 0 {
		t.Fatalf("ScoreIDs allocated %.1f objects per call, want 0", allocs)
	}
}

// TestAppendTopKAllocFree: the id form with a reused dst is what a
// search request runs, and it allocates nothing.
func TestAppendTopKAllocFree(t *testing.T) {
	idx := buildIdx(t)
	terms := termIDs(idx, []string{"beach", "swimwear", "beach"})
	sc := new(Scratch)
	dst := idx.AppendTopK(sc, nil, terms, 5) // size the scratch and dst
	if allocs := testing.AllocsPerRun(50, func() {
		dst = idx.AppendTopK(sc, dst[:0], terms, 5)
	}); allocs != 0 {
		t.Fatalf("AppendTopK allocated %.1f objects per call, want 0", allocs)
	}
}

// TestFreshIndexesScoreAllocFree scores several freshly built indexes in
// turn through one scratch that has already served the largest of them:
// an index brings no scoring state of its own, so even the first query
// on each allocates nothing, and every hit equals a fresh scratch's.
func TestFreshIndexesScoreAllocFree(t *testing.T) {
	sizes := []int{300, 40, 170, 300, 90}
	idxs := make([]*Index, len(sizes))
	terms := make([][]uint32, len(sizes))
	for i, n := range sizes {
		docs := make([][]string, n)
		for d := range docs {
			docs[d] = []string{"beach", fmt.Sprintf("w%d", d%17), fmt.Sprintf("w%d", d%5)}
		}
		idx, err := Build(docs)
		if err != nil {
			t.Fatal(err)
		}
		idxs[i], terms[i] = idx, termIDs(idx, []string{"w3", "beach", "w3"})
	}
	sc := new(Scratch)
	dst := idxs[0].AppendTopK(sc, nil, terms[0], 10)
	idxs[0].ScoreIDs(sc, terms[0]) // every document: sizes the hit buffer
	var tops, all [][]Hit
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, idx := range idxs[1:] {
		dst = idx.AppendTopK(sc, dst[:0], terms[i+1], 10)
		if len(idx.ScoreIDs(sc, terms[i+1])) != sizes[i+1] {
			t.Fatal("ScoreIDs missed a document holding the query's terms")
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("scoring %d fresh indexes through a sized scratch allocated %d objects, want 0", len(idxs)-1, n)
	}
	for i, idx := range idxs {
		tops = append(tops, idx.AppendTopK(sc, nil, terms[i], 10))
		all = append(all, slices.Clone(idx.ScoreIDs(sc, terms[i])))
	}
	for i, idx := range idxs {
		if err := sameHits(tops[i], idx.TopK(new(Scratch), []string{"w3", "beach"}, 10)); err != nil {
			t.Fatalf("index %d: AppendTopK through the shared scratch: %v", i, err)
		}
		if err := sameHits(all[i], idx.ScoreIDs(new(Scratch), terms[i])); err != nil {
			t.Fatalf("index %d: ScoreIDs through the shared scratch: %v", i, err)
		}
	}
}

func TestScoreDedupsQueryTerms(t *testing.T) {
	idx := buildIdx(t)
	s1 := scoreOf(idx, []string{"beach"}, 0)
	s2 := scoreOf(idx, []string{"beach", "beach", "beach"}, 0)
	if s1 != s2 {
		t.Fatalf("repeated query terms changed score: %f vs %f", s1, s2)
	}
}

func TestTopK(t *testing.T) {
	idx := buildIdx(t)
	sc := new(Scratch)
	hits := idx.TopK(sc, []string{"beach", "swimwear"}, 2)
	if len(hits) != 2 {
		t.Fatalf("TopK returned %d hits, want 2", len(hits))
	}
	if hits[0].Doc != 0 {
		t.Fatalf("TopK best = doc %d, want 0", hits[0].Doc)
	}
	if hits[0].Score < hits[1].Score {
		t.Fatal("TopK not sorted descending")
	}
	if got := idx.TopK(sc, []string{"zebra"}, 5); len(got) != 0 {
		t.Fatalf("TopK(zebra) = %v, want empty", got)
	}
}

func TestTermFrequencySaturation(t *testing.T) {
	// More occurrences should score higher, but sub-linearly, even though
	// each extra occurrence also lengthens the document.
	docs := [][]string{
		{"x"},
		{"x", "x"},
		{"x", "x", "x", "x", "x", "x", "x", "x"},
		{"y"},
	}
	idx, err := Build(docs)
	if err != nil {
		t.Fatal(err)
	}
	q := []string{"x"}
	s1, s2, s8 := scoreOf(idx, q, 0), scoreOf(idx, q, 1), scoreOf(idx, q, 2)
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
	idx, err := Build(docs)
	if err != nil {
		t.Fatal(err)
	}
	long, short := scoreOf(idx, []string{"x"}, 0), scoreOf(idx, []string{"x"}, 1)
	if short <= long {
		t.Fatalf("length normalization failed: short=%f long=%f", short, long)
	}
}

// Property: scores are non-negative and finite for arbitrary query shapes.
func TestScoreNonNegativeProperty(t *testing.T) {
	idx := buildIdx(t)
	sc := new(Scratch)
	vocabs := []string{"beach", "dress", "swimwear", "hiking", "zebra", "router", ""}
	f := func(picks []uint8) bool {
		q := make([]string, 0, len(picks))
		for _, p := range picks {
			q = append(q, vocabs[int(p)%len(vocabs)])
		}
		for _, h := range idx.ScoreIDs(sc, termIDs(idx, q)) {
			if h.Score < 0 || math.IsInf(h.Score, 0) || math.IsNaN(h.Score) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyDocNeverMatches(t *testing.T) {
	idx := buildIdx(t)
	if s := scoreOf(idx, []string{"beach", "hiking", "router"}, 4); s != 0 {
		t.Fatalf("empty doc score = %f, want 0", s)
	}
}

// TestScorerMatchesScoreAll holds ScoreIDs to the map-based reference
// bit for bit across many queries through one scratch, including
// repeated terms and rounds that a TopK through the same scratch
// separates.
func TestScorerMatchesScoreAll(t *testing.T) {
	docs := [][]string{
		{"red", "shoes", "leather", "red"},
		{"blue", "shoes", "canvas"},
		{"red", "hat", "wool"},
		{},
		{"hat", "hat", "leather", "belt"},
	}
	idx, err := Build(docs)
	if err != nil {
		t.Fatal(err)
	}
	ref := buildRef(docs)
	queries := [][]string{
		{"red", "shoes"},
		{"red", "red", "hat"}, // dup terms
		{"unknown"},
		{"leather", "belt", "shoes"},
		{"red", "shoes"}, // repeated query
		nil,
	}
	sc := new(Scratch)
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			ids := termIDs(idx, q)
			if err := sameHits(idx.ScoreIDs(sc, ids), ref.scoreAll(q)); err != nil {
				t.Fatalf("round %d query %v: ScoreIDs(%v): %v", round, q, ids, err)
			}
		}
		idx.TopK(sc, []string{"red", "hat", "leather"}, 2)
	}
}

// lists is a streamed collection: document d is docs[d] cut into id
// lists of at most width ids, empty lists between them.
type lists struct {
	docs  [][]uint32
	width int
}

func (l lists) Len() int       { return len(l.docs) }
func (l lists) Cost(d int) int { return len(l.docs[d]) + 1 }
func (l lists) Walk(d int, part func(ids []uint32)) {
	doc := l.docs[d]
	for len(doc) > 0 {
		n := min(l.width, len(doc))
		part(doc[:n])
		part(nil)
		doc = doc[n:]
	}
}

// TestBuildFromMatchesBuildIDs streams random collections in lists of
// every width, at every par width, and holds the index to BuildFrom's over
// the documents laid out as IDs: the same postings, lengths and idf bits —
// also when a kept Builder's Rebuild writes it into the arrays of the
// index before, which indexed another collection.
func TestBuildFromMatchesBuildIDs(t *testing.T) {
	vocab := textutil.NewVocab()
	for i := range 50 {
		vocab.Add(fmt.Sprintf("t%d", i))
	}
	rng := rand.New(rand.NewPCG(3, 5))
	var prev *Index
	var bl Builder
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for trial := range 40 {
		docs := make([][]uint32, 1+rng.IntN(60))
		for d := range docs {
			for range rng.IntN(30) {
				docs[d] = append(docs[d], uint32(rng.IntN(vocab.Size())))
			}
		}
		runtime.GOMAXPROCS(1 + trial%4)
		want, err := BuildFrom(IDs(docs), vocab)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 7, 100} {
			build := BuildFrom
			if width%2 == 1 {
				build = func(docs Docs, vocab *textutil.Vocab) (*Index, error) { return bl.Rebuild(prev, docs, vocab) }
			}
			got, err := build(lists{docs, width}, vocab)
			if err != nil {
				t.Fatal(err)
			}
			prev = got
			if !reflect.DeepEqual(got.terms, want.terms) || !reflect.DeepEqual(got.posts, want.posts) ||
				!reflect.DeepEqual(got.docLen, want.docLen) || got.avgLen != want.avgLen || got.tokens != want.tokens {
				t.Fatalf("trial %d, lists of %d: the streamed index differs from the laid-out one", trial, width)
			}
		}
	}
	if _, err := BuildFrom(lists{[][]uint32{{1}, {2, 99}}, 1}, vocab); err == nil {
		t.Fatal("BuildFrom accepted a term id outside the vocabulary")
	}
}

// TestRebuildReusesCountArrays holds a kept Builder to its arrays and
// Rebuild to those of the index it rebuilds into: over the same
// vocabulary a second build allocates nothing vocabulary-sized, the
// per-range count arrays and gathered postings included.
func TestRebuildReusesCountArrays(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations blur the byte count")
	}
	vocab := textutil.NewVocab()
	for i := range 1 << 16 {
		vocab.Add(fmt.Sprintf("t%d", i))
	}
	docs := make([][]uint32, 64)
	for d := range docs {
		for j := range 8 {
			docs[d] = append(docs[d], uint32((d*131+j*977)%vocab.Size()))
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var bl Builder
	idx, err := bl.Rebuild(nil, IDs(docs), vocab)
	if err != nil {
		t.Fatal(err)
	}
	if len(bl.ranges) == 0 || len(bl.ranges[0].next) != vocab.Size() {
		t.Fatal("the builder kept no count arrays for the next build")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := bl.Rebuild(idx, IDs(docs), vocab); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(4*vocab.Size()) {
		t.Errorf("Rebuild over the same %d-term vocabulary allocated %d bytes, want less than one int32 per term", vocab.Size(), grew)
	}
}
