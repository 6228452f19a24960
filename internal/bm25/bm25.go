// Package bm25 implements an inverted index with Okapi BM25 relevance
// scoring. SHOAL's topic-description matching (paper §2.3) ranks candidate
// queries by rel(q, D_k), the BM25 relevance of query q to the pseudo
// document D_k formed by concatenating all item titles of topic k.
//
// The index lives on dense term ids: a vocabulary maps token strings to
// ids, and postings are one CSR — term t's postings are the span
// posts[terms[t].off:][:terms[t].df], ascending by document. Build interns
// string documents into a vocabulary of its own; BuildIDs takes
// documents already spelled in a caller's vocabulary (the corpus text
// plane) and shares that vocabulary for query-time lookups. Both feed
// one count-then-fill builder: no per-document map, no per-term slice
// growth, no sorting — visiting documents in ascending order already
// yields each term's postings in ascending document order, which is the
// only order scoring depends on. The builder splits the documents into
// GOMAXPROCS contiguous ranges (internal/par): each range counts its own
// document frequencies, a serial pass gives every (term, range) pair its
// offset in the term's span, and each range fills its own slots, so the
// postings — and every score — are the same at any width.
package bm25

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"shoal/internal/par"
	"shoal/internal/textutil"
)

// Config holds the standard Okapi parameters.
type Config struct {
	// K1 controls term-frequency saturation. Typical range 1.2–2.0.
	K1 float64
	// B controls document-length normalization in [0,1].
	B float64
}

// DefaultConfig returns k1=1.2, b=0.75.
func DefaultConfig() Config { return Config{K1: 1.2, B: 0.75} }

func (cfg Config) validate() error {
	if cfg.K1 < 0 {
		return fmt.Errorf("bm25: K1 must be non-negative, got %f", cfg.K1)
	}
	if cfg.B < 0 || cfg.B > 1 {
		return fmt.Errorf("bm25: B must be in [0,1], got %f", cfg.B)
	}
	return nil
}

type posting struct {
	doc int32
	tf  int32
}

// term is one vocabulary entry's view of the postings: its span in
// Index.posts and its idf — a pure function of df, computed once at
// build. One record per term keeps a query-time lookup to one cache line
// past the vocabulary.
type term struct {
	off, df int32
	idf     float64
}

// Index is an immutable BM25 index over a document collection. Documents
// are token slices; tokens are arbitrary strings.
type Index struct {
	cfg Config
	// vocab resolves a query token to its term id — one map lookup per
	// query token. Read-only here: BuildIDs shares the caller's.
	vocab *textutil.Vocab
	// terms (by term id) and posts are the CSR postings.
	terms  []term
	posts  []posting
	docLen []int32
	avgLen float64
	n      int
	// scratchPool recycles the dense per-query scoring state used by
	// TopK, so the serving hot path allocates only the result slice.
	scratchPool sync.Pool
}

// scratch is the pooled dense scoring state: a score per document, a
// touched marker per document, and the list of touched docs for O(hits)
// reset. Scores can legitimately be 0 (idf floors at 0), so marking is
// explicit rather than inferred from the score.
type scratch struct {
	scores  []float64
	marked  []bool
	touched []int32
	terms   []uint32
}

// Build indexes docs. Empty documents are permitted (they simply never
// match). Build returns an error for an empty collection or invalid config.
func Build(docs [][]string, cfg Config) (*Index, error) {
	ids, vocab := textutil.Intern(docs)
	return BuildIDs(ids, vocab, cfg)
}

// BuildIDs indexes documents whose tokens are already term ids of vocab
// (every id must be below vocab.Size()). The index keeps vocab for
// query-time lookups and never modifies it; the caller must not Add to
// it while the index is in use. Scores equal those of Build over the
// same documents spelled as strings, bit for bit.
func BuildIDs(docs [][]uint32, vocab *textutil.Vocab, cfg Config) (*Index, error) {
	if len(docs) == 0 {
		return nil, errors.New("bm25: empty document collection")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nTerms := vocab.Size()
	idx := &Index{
		cfg:    cfg,
		vocab:  vocab,
		terms:  make([]term, nTerms),
		docLen: make([]int32, len(docs)),
		n:      len(docs),
	}
	b := build{docs: docs, nTerms: nTerms, docLen: idx.docLen}
	bounds := par.Split(nil, len(docs), func(d int) int { return len(docs[d]) + 1 })
	b.ranges = make([]buildRange, len(bounds)-1)
	if err := par.Run(bounds, &b, (*build).count); err != nil {
		return nil, err
	}

	// Term t's span holds range 0's postings, then range 1's, and so on:
	// each range's count becomes the offset its fill starts at, so the
	// postings come out ascending by document at any width.
	var nPosts int32
	ranges := b.ranges
	for t := range idx.terms {
		e := &idx.terms[t]
		e.off = nPosts
		for w := range ranges {
			next := ranges[w].next
			next[t], nPosts = nPosts, nPosts+next[t]
		}
		e.df = nPosts - e.off
		e.idf = idx.idfFromDF(int(e.df))
	}
	total := 0
	for w := range ranges {
		total += ranges[w].tokens
	}
	idx.posts = make([]posting, nPosts)
	b.posts = idx.posts
	_ = par.Run(bounds, &b, (*build).fill) // fill has no failure to report

	idx.avgLen = float64(total) / float64(len(docs))
	if idx.avgLen == 0 {
		idx.avgLen = 1
	}
	return idx, nil
}

// build is BuildIDs' state shared by its ranges of documents.
type build struct {
	docs   [][]uint32
	nTerms int
	ranges []buildRange
	posts  []posting
	docLen []int32
}

// buildRange is one range's own arrays. next[t] first counts the range's
// documents holding term t, then is where its next posting of t goes.
// seen[t] holds the last document that counted t, offset by one so the
// zero value means "none"; fill reuses it with the sign flipped, so no
// clearing pass sits between the two.
type buildRange struct {
	next, seen []int32
	tokens     int
}

// count fills range w's df counts, document lengths and token total,
// and reports the range's first document holding a term id outside the
// vocabulary.
func (b *build) count(w, lo, hi int) error {
	// The loops read locals: a store through a slice may alias a field
	// read through a pointer, which the compiler would load again.
	docs, docLen, nTerms, tokens := b.docs, b.docLen, b.nTerms, 0
	next, seen := make([]int32, nTerms), make([]int32, nTerms)
	for d := lo; d < hi; d++ {
		docLen[d] = int32(len(docs[d]))
		tokens += len(docs[d])
		stamp := int32(d) + 1
		for _, t := range docs[d] {
			if int(t) >= nTerms {
				return fmt.Errorf("bm25: document %d holds term id %d outside the vocabulary [0,%d)", d, t, nTerms)
			}
			if seen[t] != stamp {
				seen[t] = stamp
				next[t]++
			}
		}
	}
	b.ranges[w] = buildRange{next: next, seen: seen, tokens: tokens}
	return nil
}

// fill writes range w's postings: a term's first occurrence in a
// document claims the next slot of the range's part of its span,
// repeats bump that slot's tf.
func (b *build) fill(w, lo, hi int) error {
	docs, next, seen, posts := b.docs, b.ranges[w].next, b.ranges[w].seen, b.posts
	for d := lo; d < hi; d++ {
		stamp := -int32(d) - 1
		for _, t := range docs[d] {
			if seen[t] != stamp {
				seen[t] = stamp
				posts[next[t]] = posting{doc: int32(d), tf: 1}
				next[t]++
			} else {
				posts[next[t]-1].tf++
			}
		}
	}
	return nil
}

// N returns the number of indexed documents.
func (idx *Index) N() int { return idx.n }

// idfFromDF is the BM25+ style idf of a term with document frequency
// df, floored at 0 so scores are non-negative.
func (idx *Index) idfFromDF(df int) float64 {
	if df == 0 {
		return 0
	}
	v := math.Log((float64(idx.n)-float64(df)+0.5)/(float64(df)+0.5) + 1)
	if v < 0 {
		return 0
	}
	return v
}

// Vocab is the vocabulary the index resolves query tokens in: term ids
// passed to AppendTopK are its ids. Shared and frozen — look up, never
// Add.
func (idx *Index) Vocab() *textutil.Vocab { return idx.vocab }

// postings returns the term's posting span and idf.
func (idx *Index) postings(t uint32) ([]posting, float64) {
	e := idx.terms[t]
	return idx.posts[e.off:][:e.df], e.idf
}

// resolve appends to buf the term ids of the query's known tokens, in
// query order; unknown tokens have no postings and are dropped.
func (idx *Index) resolve(query []string, buf []uint32) []uint32 {
	for _, tok := range query {
		if t, ok := idx.vocab.ID(tok); ok {
			buf = append(buf, uint32(t))
		}
	}
	return buf
}

// Score returns the BM25 relevance of the query tokens to document doc.
// Unknown terms contribute zero. It returns an error for out-of-range doc.
func (idx *Index) Score(query []string, doc int) (float64, error) {
	if doc < 0 || doc >= idx.n {
		return 0, fmt.Errorf("bm25: document %d out of range [0,%d)", doc, idx.n)
	}
	var s float64
	terms := idx.resolve(query, nil)
	for j, t := range terms {
		if slices.Contains(terms[:j], t) {
			continue // a repeated term counts once
		}
		plist, idf := idx.postings(t)
		i := sort.Search(len(plist), func(i int) bool { return plist[i].doc >= int32(doc) })
		if i == len(plist) || plist[i].doc != int32(doc) {
			continue
		}
		s += idx.termScore(idf, plist[i])
	}
	return s, nil
}

// termScore is one posting's BM25 contribution — the one expression
// every scoring path evaluates, so they all agree to the bit.
func (idx *Index) termScore(idf float64, p posting) float64 {
	tf := float64(p.tf)
	dl := float64(idx.docLen[p.doc])
	denom := tf + idx.cfg.K1*(1-idx.cfg.B+idx.cfg.B*dl/idx.avgLen)
	return idf * tf * (idx.cfg.K1 + 1) / denom
}

// ScoreAll returns the BM25 relevance of the query against every document
// that shares at least one term, as hits in ascending document order.
// Documents sharing no term are absent (their score is exactly 0). This
// sparse form is what §2.3 needs: the concentration denominator adds
// exp(0)=1 for every untouched topic in closed form, and the ascending
// order fixes the float summation order without a per-call sort of map
// keys. Scoring runs through the pooled dense scratch + touched list the
// way TopK does, so the only allocation is the returned slice.
func (idx *Index) ScoreAll(query []string) []Hit {
	sc := idx.getScratch()
	defer idx.putScratch(sc)
	sc.terms = idx.resolve(query, sc.terms[:0])
	touched := idx.scoreInto(sc, sc.terms)
	return idx.collectHits(sc, touched, make([]Hit, 0, len(touched)))
}

// scoreInto accumulates the BM25 scores of the query terms into the
// dense scratch and returns the touched-document list (unordered).
// Callers must reset the touched entries before pooling the scratch.
// A repeated term counts once, at its first occurrence: terms accumulate
// in first-occurrence order and each term's postings in ascending
// document order, which fixes every score's float rounding. Query terms
// are few, so the repeat check scans instead of keeping a set.
func (idx *Index) scoreInto(sc *scratch, terms []uint32) []int32 {
	touched := sc.touched[:0]
	for i, t := range terms {
		if slices.Contains(terms[:i], t) {
			continue
		}
		plist, idf := idx.postings(t)
		for _, p := range plist {
			if !sc.marked[p.doc] {
				sc.marked[p.doc] = true
				touched = append(touched, p.doc)
			}
			sc.scores[p.doc] += idx.termScore(idf, p)
		}
	}
	return touched
}

// collectHits appends the touched documents to hits in ascending
// document order and resets the scratch entries it read.
func (idx *Index) collectHits(sc *scratch, touched []int32, hits []Hit) []Hit {
	slices.Sort(touched)
	for _, d := range touched {
		hits = append(hits, Hit{Doc: int(d), Score: sc.scores[d]})
		sc.scores[d] = 0
		sc.marked[d] = false
	}
	sc.touched = touched[:0]
	return hits
}

// TopK returns the k highest-scoring documents for the query, best first;
// ties break on lower document id. It resolves the tokens to term ids
// and runs AppendTopK's selection, so the only allocation is the
// returned slice.
func (idx *Index) TopK(query []string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	sc := idx.getScratch()
	defer idx.putScratch(sc)
	sc.terms = idx.resolve(query, sc.terms[:0])
	return idx.topK(sc, sc.terms, nil, k)
}

// AppendTopK appends to dst the k highest-scoring documents for a query
// spelled as term ids of Vocab, best first, ties on lower document id.
// Repeated ids count once, at their first occurrence, so the result
// equals TopK over the same tokens hit for hit and bit for bit. Scoring
// accumulates into a pooled dense array with a touched-doc list (no
// per-query map), and selection keeps a partial top-k instead of sorting
// every hit: with a reused dst it allocates nothing.
func (idx *Index) AppendTopK(dst []Hit, terms []uint32, k int) []Hit {
	if k <= 0 {
		return dst
	}
	sc := idx.getScratch()
	defer idx.putScratch(sc)
	return idx.topK(sc, terms, dst, k)
}

// topK is the one selection: it scores the terms and appends the best k
// to dst, growing it at most once.
func (idx *Index) topK(sc *scratch, terms []uint32, dst []Hit, k int) []Hit {
	touched := idx.scoreInto(sc, terms)

	// Partial selection: keep the best k in a sorted prefix by bounded
	// insertion. The order (score desc, doc asc) is total, so the top-k is
	// unique. k is small on the serving path, so shifting a few entries
	// beats a full sort of every touched doc, and one comparison against
	// the worst kept hit rejects most of them.
	if k > len(touched) {
		k = len(touched)
	}
	base := len(dst)
	dst = slices.Grow(dst, k)
	hits := dst[base : base : base+k]
	for _, d := range touched {
		h := Hit{Doc: int(d), Score: sc.scores[d]}
		n := len(hits)
		if n < k {
			hits = hits[:n+1]
		} else if n--; !h.before(hits[n]) {
			continue
		}
		for ; n > 0 && h.before(hits[n-1]); n-- {
			hits[n] = hits[n-1]
		}
		hits[n] = h
	}

	// Reset only what this query touched before pooling the scratch.
	for _, d := range touched {
		sc.scores[d] = 0
		sc.marked[d] = false
	}
	sc.touched = touched[:0]
	return dst[:base+len(hits)]
}

// Scorer is a batch scoring session over one index: it checks a dense
// scratch out of the pool once for its whole lifetime and returns hits
// in a buffer it owns, so callers scoring many queries back to back
// (describe's per-query sweep) pay the pool round-trip once and allocate
// nothing per query. Scores are byte-identical to Index.ScoreAll — the
// accumulation order is the same. Not safe for concurrent use; call
// Close when done to return the scratch to the pool.
type Scorer struct {
	idx  *Index
	sc   *scratch
	hits []Hit
}

// NewScorer begins a batch scoring session. The hits buffer starts empty
// but non-nil, so a query without hits answers like Index.ScoreAll does.
func (idx *Index) NewScorer() *Scorer {
	return &Scorer{idx: idx, sc: idx.getScratch(), hits: []Hit{}}
}

// ScoreAll is Index.ScoreAll through the session's scratch: hits in
// ascending document order, absent documents score 0. The returned
// slice is the session's own buffer, valid until the next call. It
// resolves the tokens in Vocab and calls ScoreIDs.
func (s *Scorer) ScoreAll(query []string) []Hit {
	s.sc.terms = s.idx.resolve(query, s.sc.terms[:0])
	return s.ScoreIDs(s.sc.terms)
}

// ScoreIDs is ScoreAll for a query spelled as term ids of Vocab: a
// repeated id counts once, at its first occurrence, so the hits equal
// ScoreAll's over the same tokens bit for bit, found without hashing a
// token. The returned slice is the session's own buffer, valid until the
// next call.
func (s *Scorer) ScoreIDs(terms []uint32) []Hit {
	s.hits = s.idx.collectHits(s.sc, s.idx.scoreInto(s.sc, terms), s.hits[:0])
	return s.hits
}

// Close returns the session's scratch to the pool. The Scorer must not
// be used afterwards.
func (s *Scorer) Close() {
	if s.sc != nil {
		s.idx.putScratch(s.sc)
		s.sc = nil
	}
}

// getScratch pops (or builds) dense scoring state sized to the corpus.
func (idx *Index) getScratch() *scratch {
	if sc, ok := idx.scratchPool.Get().(*scratch); ok {
		return sc
	}
	return &scratch{
		scores: make([]float64, idx.n),
		marked: make([]bool, idx.n),
	}
}

func (idx *Index) putScratch(sc *scratch) { idx.scratchPool.Put(sc) }

// Hit is a scored document.
type Hit struct {
	Doc   int
	Score float64
}

// before is TopK's order: higher score first, ties on lower document id.
func (h Hit) before(o Hit) bool {
	return h.Score > o.Score || h.Score == o.Score && h.Doc < o.Doc
}
