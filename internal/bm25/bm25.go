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
// plane) and shares that vocabulary for query-time lookups, and BuildFrom
// streams documents that are never materialized: a Docs source walks each
// one as consecutive id lists, once to count and once to fill. All three
// feed one count-then-fill builder: no per-document map, no per-term slice
// growth, no sorting — visiting documents in ascending order already
// yields each term's postings in ascending document order, which is the
// only order scoring depends on. The builder splits the documents into
// GOMAXPROCS contiguous ranges (internal/par): each range counts its own
// document frequencies, a serial pass gives every (term, range) pair its
// offset in the term's span, and each range fills its own slots, so the
// postings — and every score — are the same at any width. The Okapi
// parameters are constants, k1 = 1.2 and b = 0.75.
package bm25

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"shoal/internal/par"
	"shoal/internal/reuse"
	"shoal/internal/textutil"
)

// Okapi BM25's parameters, fixed at the usual values: §2.3 uses plain
// BM25, and neither the description ranker nor the search index tunes it.
const (
	// okapiK1 controls term-frequency saturation.
	okapiK1 = 1.2
	// okapiB controls document-length normalization, in [0,1].
	okapiB = 0.75
)

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
	// vocab resolves a query token to its term id — one map lookup per
	// query token. Read-only here: BuildIDs shares the caller's.
	vocab *textutil.Vocab
	// terms (by term id) and posts are the CSR postings.
	terms  []term
	posts  []posting
	docLen []int32
	avgLen float64
	n      int
	tokens int
	// scratchPool recycles the dense per-query scoring state used by
	// TopK, so the serving hot path allocates only the result slice. It
	// is an object of its own: the runtime keeps every pool it has seen
	// a Put on for up to two GC cycles, and a pool embedded here would
	// keep the whole index — postings included — alive with it. Every
	// window slide drops the searcher's index it replaces, and the fewer
	// the GC cycles a slide's allocation starts, the more of them a cycle
	// would find pinned.
	scratchPool *sync.Pool
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
// match). Build returns an error for an empty collection.
func Build(docs [][]string) (*Index, error) {
	ids, vocab := textutil.Intern(docs)
	return BuildIDs(ids, vocab)
}

// BuildIDs indexes documents whose tokens are already term ids of vocab
// (every id must be below vocab.Size()). The index keeps vocab for
// query-time lookups and never modifies it; the caller must not Add to
// it while the index is in use. Scores equal those of Build over the
// same documents spelled as strings, bit for bit.
func BuildIDs(docs [][]uint32, vocab *textutil.Vocab) (*Index, error) {
	return BuildFrom(IDs(docs), vocab)
}

// Docs is a document collection as a stream: each document is walked as
// consecutive lists of term ids, and never has to exist as one array.
type Docs interface {
	// Len is the number of documents.
	Len() int
	// Cost weighs document d for splitting the collection into ranges of
	// about equal work; it does not change the index.
	Cost(d int) int
	// Walk feeds document d's term ids to part as id lists, in document
	// order. Every walk of a document feeds the same ids.
	Walk(d int, part func(ids []uint32))
}

// IDs is a materialized collection as a Docs source: document d is
// docs[d], walked as one list.
type IDs [][]uint32

func (docs IDs) Len() int                            { return len(docs) }
func (docs IDs) Cost(d int) int                      { return len(docs[d]) + 1 }
func (docs IDs) Walk(d int, part func(ids []uint32)) { part(docs[d]) }

// BuildFrom is BuildIDs over a streamed collection: the builder walks
// every document twice, once to count and once to fill the postings, and
// the index is the one BuildIDs gives over the same documents
// materialized, bit for bit.
func BuildFrom(docs Docs, vocab *textutil.Vocab) (*Index, error) {
	return Rebuild(nil, docs, vocab)
}

// Rebuild is BuildFrom in the arrays of old, an index its caller is done
// with: the term records, postings and document lengths are re-sliced
// where they fit, and the pooled scoring scratch is kept when the
// document count is the same. old must not be used afterwards; nil
// builds a fresh index. The index is BuildFrom's, bit for bit.
func Rebuild(old *Index, docs Docs, vocab *textutil.Vocab) (*Index, error) {
	n := docs.Len()
	if n == 0 {
		return nil, errors.New("bm25: empty document collection")
	}
	if old == nil {
		old = &Index{}
	}
	pool := old.scratchPool
	if pool == nil || old.n != n {
		pool = new(sync.Pool)
	}
	nTerms := vocab.Size()
	idx := &Index{
		vocab:       vocab,
		terms:       reuse.Grow(old.terms, nTerms),
		docLen:      reuse.Grow(old.docLen, n),
		n:           n,
		scratchPool: pool,
	}
	b := build{docs: docs, nTerms: nTerms, docLen: idx.docLen}
	bounds := par.Split(nil, n, docs.Cost)
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
	idx.posts = reuse.Grow(old.posts, int(nPosts))
	b.posts = idx.posts
	_ = par.Run(bounds, &b, (*build).fill) // fill has no failure to report

	idx.tokens = total
	idx.avgLen = float64(total) / float64(n)
	if idx.avgLen == 0 {
		idx.avgLen = 1
	}
	return idx, nil
}

// build is BuildFrom's state shared by its ranges of documents.
type build struct {
	docs   Docs
	nTerms int
	ranges []buildRange
	posts  []posting
	docLen []int32
}

// buildRange is one range's own arrays and the walk position its id-list
// callbacks share. next[t] first counts the range's documents holding
// term t, then is where its next posting of t goes. seen[t] holds the
// last document that counted t, offset by one so the zero value means
// "none"; fill reuses it with the sign flipped, so no clearing pass sits
// between the two.
type buildRange struct {
	next, seen []int32
	posts      []posting
	tokens     int
	// doc is the document being walked and stamp its seen mark; dl counts
	// its tokens. bad is 1 + the first term id outside the vocabulary.
	doc, stamp int32
	dl         int
	nTerms     int
	bad        int64
	// pad keeps two ranges' walk positions, written per id list, off
	// one cache line.
	_ [64]byte
}

// count fills range w's df counts, document lengths and token total,
// and reports the range's first document holding a term id outside the
// vocabulary.
func (b *build) count(w, lo, hi int) error {
	r := &b.ranges[w]
	*r = buildRange{next: make([]int32, b.nTerms), seen: make([]int32, b.nTerms), nTerms: b.nTerms}
	part := r.countIDs
	for d := lo; d < hi; d++ {
		r.stamp, r.dl = int32(d)+1, 0
		b.docs.Walk(d, part)
		if r.bad != 0 {
			return fmt.Errorf("bm25: document %d holds term id %d outside the vocabulary [0,%d)", d, r.bad-1, b.nTerms)
		}
		b.docLen[d] = int32(r.dl)
		r.tokens += r.dl
	}
	return nil
}

// countIDs counts one id list of the current document. The loop reads
// locals: a store through a slice may alias a field read through a
// pointer, which the compiler would load again.
func (r *buildRange) countIDs(ids []uint32) {
	next, seen, stamp, nTerms := r.next, r.seen, r.stamp, r.nTerms
	r.dl += len(ids)
	for _, t := range ids {
		if int(t) >= nTerms {
			if r.bad == 0 {
				r.bad = int64(t) + 1
			}
			continue
		}
		if seen[t] != stamp {
			seen[t] = stamp
			next[t]++
		}
	}
}

// fill writes range w's postings: a term's first occurrence in a
// document claims the next slot of the range's part of its span,
// repeats bump that slot's tf.
func (b *build) fill(w, lo, hi int) error {
	r := &b.ranges[w]
	r.posts = b.posts
	part := r.fillIDs
	for d := lo; d < hi; d++ {
		r.doc, r.stamp = int32(d), -int32(d)-1
		b.docs.Walk(d, part)
	}
	return nil
}

// fillIDs writes one id list of the current document's postings.
func (r *buildRange) fillIDs(ids []uint32) {
	next, seen, posts, doc, stamp := r.next, r.seen, r.posts, r.doc, r.stamp
	for _, t := range ids {
		if seen[t] != stamp {
			seen[t] = stamp
			posts[next[t]] = posting{doc: doc, tf: 1}
			next[t]++
		} else {
			posts[next[t]-1].tf++
		}
	}
}

// N returns the number of indexed documents.
func (idx *Index) N() int { return idx.n }

// DocLen returns the number of tokens of document d.
func (idx *Index) DocLen(d int) int { return int(idx.docLen[d]) }

// Tokens returns the number of tokens of every document together.
func (idx *Index) Tokens() int { return idx.tokens }

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

// termScore is one posting's BM25 contribution — the one expression
// every scoring path evaluates, so they all agree to the bit. The
// explicit float64 keeps the k1 product rounded before the add, so no
// architecture fuses the two into one rounding.
func (idx *Index) termScore(idf float64, p posting) float64 {
	tf := float64(p.tf)
	dl := float64(idx.docLen[p.doc])
	denom := tf + float64(okapiK1*(1-okapiB+okapiB*dl/idx.avgLen))
	return idf * tf * (okapiK1 + 1) / denom
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

// TopK returns the k highest-scoring documents for the query, best first;
// ties break on lower document id. It resolves the tokens to term ids —
// an unknown token has no postings and is dropped — and runs
// AppendTopK's selection, so the only allocation is the returned slice.
func (idx *Index) TopK(query []string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	sc := idx.getScratch()
	defer idx.putScratch(sc)
	terms := sc.terms[:0]
	for _, tok := range query {
		if t, ok := idx.vocab.ID(tok); ok {
			terms = append(terms, uint32(t))
		}
	}
	sc.terms = terms
	return idx.topK(sc, terms, nil, k)
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
// nothing per query. Scores are bit-identical to TopK's — the
// accumulation order is the same. Not safe for concurrent use; call
// Close when done to return the scratch to the pool.
type Scorer struct {
	idx  *Index
	sc   *scratch
	hits []Hit
}

// NewScorer begins a batch scoring session.
func (idx *Index) NewScorer() *Scorer {
	return &Scorer{idx: idx, sc: idx.getScratch()}
}

// ScoreIDs returns the BM25 relevance of a query spelled as term ids of
// Vocab against every document that shares at least one term, as hits
// in ascending document order; a repeated id counts once, at its first
// occurrence. Documents sharing no term are absent (their score is
// exactly 0). This sparse form is what §2.3 needs: the concentration
// denominator adds exp(0) = 1 for every untouched topic in closed form,
// and the ascending order fixes its float summation order. The returned
// slice is the session's own buffer, valid until the next call.
func (s *Scorer) ScoreIDs(terms []uint32) []Hit {
	sc := s.sc
	touched := s.idx.scoreInto(sc, terms)
	slices.Sort(touched)
	hits := s.hits[:0]
	for _, d := range touched {
		hits = append(hits, Hit{Doc: int(d), Score: sc.scores[d]})
		sc.scores[d] = 0
		sc.marked[d] = false
	}
	sc.touched = touched[:0]
	s.hits = hits
	return hits
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
