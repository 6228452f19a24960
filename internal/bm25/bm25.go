// Package bm25 implements an inverted index with Okapi BM25 relevance
// scoring. SHOAL's topic-description matching (paper §2.3) ranks candidate
// queries by rel(q, D_k), the BM25 relevance of query q to the pseudo
// document D_k formed by concatenating all item titles of topic k.
//
// The index lives on dense term ids: a vocabulary maps token strings to
// ids, and postings are one CSR — term t's postings are the span
// posts[terms[t].off:][:terms[t].df], ascending by document. Build interns
// string documents into a vocabulary of its own; BuildFrom takes
// documents already spelled in a caller's vocabulary (the corpus text
// plane), shares that vocabulary for query-time lookups, and streams
// them: a Docs source walks each one once, as consecutive id lists, so a
// document need never be materialized (IDs is the source over documents
// that are). Both go through a Builder, whose Rebuild can also write into
// a dead index's arrays: no per-document map, no per-term slice growth,
// no sorting — visiting documents in ascending order already yields each
// term's postings in ascending document order, which is the only order
// scoring depends on. The builder splits the documents into GOMAXPROCS
// contiguous ranges (internal/par): each range's one walk counts its own
// document frequencies and gathers its postings doc-major, a serial pass
// gives every (term, range) pair its offset in the term's span, and each
// range scatters its gathered postings into its own slots, so the
// postings — and every score — are the same at any width. A built index
// is immutable data that references none of its builder's scratch, and
// every scoring call works in a Scratch its caller owns: one Builder
// serves any build and one Scratch any index. The Okapi parameters are
// constants, k1 = 1.2 and b = 0.75.
package bm25

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
	// query token. Read-only here: BuildFrom shares the caller's.
	vocab *textutil.Vocab
	// terms (by term id) and posts are the CSR postings.
	terms  []term
	posts  []posting
	docLen []int32
	avgLen float64
	n      int
	tokens int
}

// Scratch is one caller's dense scoring state: a score and a touched
// mark per document, the list of touched documents for an O(hits)
// reset, and the term and hit buffers TopK and ScoreIDs fill. Scores can
// legitimately be 0 (idf floors at 0), so marking is explicit rather
// than inferred from the score. The caller owns it, and an index keeps
// none: one Scratch serves any index, one call at a time, and grows to
// the largest it has scored. Between calls every score and mark is zero
// to the arrays' capacity; Reset restores that for a caller that cannot
// vouch for what last wrote to them. The zero value is ready to use.
type Scratch struct {
	scores  []float64
	marked  []bool
	touched []int32
	terms   []uint32
	hits    []Hit
}

// Reset zeroes every score and mark sc holds, to the arrays' capacity.
func (sc *Scratch) Reset() {
	clear(sc.scores[:cap(sc.scores)])
	clear(sc.marked[:cap(sc.marked)])
}

// Build indexes docs. Empty documents are permitted (they simply never
// match). Build returns an error for an empty collection.
func Build(docs [][]string) (*Index, error) {
	ids, vocab := textutil.Intern(docs)
	return BuildFrom(IDs(ids), vocab)
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

// BuildFrom indexes a collection whose tokens are already term ids of
// vocab (every id must be below vocab.Size()): Builder.Rebuild into fresh
// arrays, through a fresh builder. The index keeps vocab for query-time
// lookups and never modifies it; the caller must not Add to it while the
// index is in use. Scores equal those of Build over the same documents
// spelled as strings, bit for bit, however the documents are split into
// lists.
func BuildFrom(docs Docs, vocab *textutil.Vocab) (*Index, error) {
	return new(Builder).Rebuild(nil, docs, vocab)
}

// Builder is a BM25 build's scratch, kept for the next build to re-slice:
// per range of documents, two vocabulary-sized arrays (each term's
// posting count in the range, then where its next posting goes; the
// buffer position of its last posting), the range's postings gathered
// doc-major and its documents' ends among them. Its caller owns it, and
// no index it builds references it. The zero value is ready to use; one
// serves one build at a time.
type Builder struct {
	ranges []buildRange
}

// Rebuild indexes docs as BuildFrom does, in the arrays of old, an index
// its caller is done with: the term records, postings and document
// lengths are re-sliced where they fit. old must not be used afterwards;
// nil builds into fresh arrays. The index is BuildFrom's, bit for bit,
// whatever bl or old held before. Every document is walked once: each
// range gathers its postings doc-major as it counts, and scatters them
// into the term-major spans once the offsets are known.
func (bl *Builder) Rebuild(old *Index, docs Docs, vocab *textutil.Vocab) (*Index, error) {
	n := docs.Len()
	if n == 0 {
		return nil, errors.New("bm25: empty document collection")
	}
	if old == nil {
		old = &Index{}
	}
	nTerms := vocab.Size()
	idx := &Index{
		vocab:  vocab,
		terms:  reuse.Grow(old.terms, nTerms),
		docLen: reuse.Grow(old.docLen, n),
		n:      n,
	}
	bounds := par.Split(nil, n, docs.Cost)
	bl.ranges = reuse.Grow(bl.ranges, len(bounds)-1)
	b := build{docs: docs, nTerms: nTerms, ranges: bl.ranges, docLen: idx.docLen}
	if err := par.Run(bounds, &b, (*build).count); err != nil {
		return nil, err
	}

	// Term t's span holds range 0's postings, then range 1's, and so on:
	// each range's count becomes the offset its scatter starts at, so the
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

// build is one Rebuild's state shared by its ranges of documents.
type build struct {
	docs   Docs
	nTerms int
	ranges []buildRange
	posts  []posting
	docLen []int32
}

// gathered is one posting as a range's count walk gathers it, doc-major:
// the document is implied by the range's document ends.
type gathered struct {
	term uint32
	tf   int32
}

// buildRange is one range's arrays and the walk position its id-list
// callbacks share. next[t] first counts the range's documents holding
// term t, then is where its next posting of t goes. seen[t] is 1 + the
// position in buf of the range's last posting of t, so the zero value
// means "none"; a position at or past the current document's first
// posting is a repeat. ends[i] is the end in buf of the range's i-th
// document's postings.
type buildRange struct {
	next, seen []int32
	buf        []gathered
	ends       []int32
	tokens     int
	// start is the current document's first position in buf; dl counts
	// its tokens. bad is 1 + the first term id outside the vocabulary.
	start  int32
	dl     int
	nTerms int
	bad    int64
	// pad keeps two ranges' walk positions, written per id list, off
	// one cache line.
	_ [64]byte
}

// count walks range w's documents once: it fills the range's df counts,
// document lengths and token total, gathers its postings doc-major, and
// reports the range's first document holding a term id outside the
// vocabulary.
func (b *build) count(w, lo, hi int) error {
	r := &b.ranges[w]
	next, seen := reuse.Grow(r.next, b.nTerms), reuse.Grow(r.seen, b.nTerms)
	clear(next)
	clear(seen)
	*r = buildRange{next: next, seen: seen, buf: r.buf[:0], ends: r.ends[:0], nTerms: b.nTerms}
	part := r.countIDs
	for d := lo; d < hi; d++ {
		r.start, r.dl = int32(len(r.buf)), 0
		b.docs.Walk(d, part)
		if r.bad != 0 {
			return fmt.Errorf("bm25: document %d holds term id %d outside the vocabulary [0,%d)", d, r.bad-1, b.nTerms)
		}
		b.docLen[d] = int32(r.dl)
		r.tokens += r.dl
		r.ends = append(r.ends, int32(len(r.buf)))
	}
	return nil
}

// countIDs counts and gathers one id list of the current document: a
// term's first occurrence in the document appends a posting and counts
// toward its df, a repeat bumps that posting's tf. The loop reads
// locals: a store through a slice may alias a field read through a
// pointer, which the compiler would load again.
func (r *buildRange) countIDs(ids []uint32) {
	next, seen, buf, start, nTerms := r.next, r.seen, r.buf, r.start, r.nTerms
	r.dl += len(ids)
	for _, t := range ids {
		if int(t) >= nTerms {
			if r.bad == 0 {
				r.bad = int64(t) + 1
			}
			continue
		}
		if p := seen[t]; p > start {
			buf[p-1].tf++
			continue
		}
		buf = append(buf, gathered{term: t, tf: 1})
		seen[t] = int32(len(buf))
		next[t]++
	}
	r.buf = buf
}

// fill scatters range w's gathered postings into the range's part of
// each term's span, in document order, without walking a document.
func (b *build) fill(w, lo, _ int) error {
	r := &b.ranges[w]
	next, buf, posts := r.next, r.buf, b.posts
	from := int32(0)
	for i, end := range r.ends {
		doc := int32(lo + i)
		for _, g := range buf[from:end] {
			posts[next[g.term]] = posting{doc: doc, tf: g.tf}
			next[g.term]++
		}
		from = end
	}
	return nil
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

// scoreInto accumulates the BM25 scores of the query terms into sc,
// first sizing it to the index, and returns the touched-document list
// (unordered). Callers must zero the touched entries before returning.
// A repeated term counts once, at its first occurrence: terms accumulate
// in first-occurrence order and each term's postings in ascending
// document order, which fixes every score's float rounding. Query terms
// are few, so the repeat check scans instead of keeping a set.
func (idx *Index) scoreInto(sc *Scratch, terms []uint32) []int32 {
	// Entries past the length are zero to the capacity, so re-slicing
	// hands out zeroed scores and marks.
	sc.scores, sc.marked = reuse.Grow(sc.scores, idx.n), reuse.Grow(sc.marked, idx.n)
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
// ties break on lower document id. It resolves the tokens to term ids in
// sc — an unknown token has no postings and is dropped — and runs
// AppendTopK, so the only allocation is the returned slice.
func (idx *Index) TopK(sc *Scratch, query []string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	terms := sc.terms[:0]
	for _, tok := range query {
		if t, ok := idx.vocab.ID(tok); ok {
			terms = append(terms, uint32(t))
		}
	}
	sc.terms = terms
	return idx.AppendTopK(sc, nil, terms, k)
}

// AppendTopK appends to dst the k highest-scoring documents for a query
// spelled as term ids of Vocab, best first, ties on lower document id.
// Repeated ids count once, at their first occurrence, so the result
// equals TopK over the same tokens hit for hit and bit for bit. Scoring
// accumulates into sc's dense array with a touched-doc list (no
// per-query map), and selection keeps a partial top-k instead of sorting
// every hit: with a reused dst and a scratch that has scored an index at
// least this large, it allocates nothing.
func (idx *Index) AppendTopK(sc *Scratch, dst []Hit, terms []uint32, k int) []Hit {
	if k <= 0 {
		return dst
	}
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
	if cap(dst)-base < k {
		dst = append(make([]Hit, 0, base+k), dst...) // slices.Grow makes two under -race
	}
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

	// Reset only what this query touched.
	for _, d := range touched {
		sc.scores[d] = 0
		sc.marked[d] = false
	}
	sc.touched = touched[:0]
	return dst[:base+len(hits)]
}

// ScoreIDs returns the BM25 relevance of a query spelled as term ids of
// Vocab against every document that shares at least one term, as hits
// in ascending document order; a repeated id counts once, at its first
// occurrence. Documents sharing no term are absent (their score is
// exactly 0). This sparse form is what §2.3 needs: the concentration
// denominator adds exp(0) = 1 for every untouched topic in closed form,
// and the ascending order fixes its float summation order. Scores are
// bit-identical to TopK's — the accumulation order is the same. The
// returned slice is sc's own buffer, valid until sc's next call.
func (idx *Index) ScoreIDs(sc *Scratch, terms []uint32) []Hit {
	touched := idx.scoreInto(sc, terms)
	slices.Sort(touched)
	hits := sc.hits[:0]
	for _, d := range touched {
		hits = append(hits, Hit{Doc: int(d), Score: sc.scores[d]})
		sc.scores[d] = 0
		sc.marked[d] = false
	}
	sc.touched = touched[:0]
	sc.hits = hits
	return hits
}

// Hit is a scored document.
type Hit struct {
	Doc   int
	Score float64
}

// before is TopK's order: higher score first, ties on lower document id.
func (h Hit) before(o Hit) bool {
	return h.Score > o.Score || h.Score == o.Score && h.Doc < o.Doc
}
