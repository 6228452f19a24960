package taxonomy

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"encoding/gob"

	"shoal/internal/bm25"
	"shoal/internal/model"
	"shoal/internal/textutil"
)

// Searcher answers Query→Topic lookups (demo scenario A) with BM25 over
// per-topic pseudo documents. Document i is topic i's, and a topic's ID
// is its index (Validate checks it), so a hit's document is its topic.
type Searcher struct {
	idx *bm25.Index
}

// NewSearcher indexes one token document per topic. topicDocs[i] is the
// document of tx.Topics[i] (typically: description queries + member query
// texts + category names). Topics with empty documents are searchable but
// never match. It interns the tokens into a vocabulary of its own and
// calls NewSearcherIDs.
func NewSearcher(ctx context.Context, tx *Taxonomy, topicDocs [][]string) (*Searcher, error) {
	ids, vocab := textutil.Intern(topicDocs)
	return NewSearcherIDs(ctx, tx, ids, vocab)
}

// NewSearcherIDs is NewSearcher over documents already spelled as term
// ids of vocab. The searcher resolves query tokens in vocab, which must
// not change while it is in use. Hits and scores equal NewSearcher's
// over the same documents spelled as strings, bit for bit: BM25 depends
// on which tokens match, not on how terms are numbered.
func NewSearcherIDs(ctx context.Context, tx *Taxonomy, topicDocs [][]uint32, vocab *textutil.Vocab) (*Searcher, error) {
	return NewSearcherFrom(ctx, tx, bm25.IDs(topicDocs), vocab)
}

// NewSearcherFrom is NewSearcherIDs over documents streamed into the
// postings (bm25.BuildFrom) — the corpus text plane's vocabulary in a
// pipeline build — so the documents never exist as arrays. Document i is
// topic i's.
func NewSearcherFrom(ctx context.Context, tx *Taxonomy, topicDocs bm25.Docs, vocab *textutil.Vocab) (*Searcher, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n := topicDocs.Len(); n != len(tx.Topics) {
		return nil, fmt.Errorf("taxonomy: %d docs for %d topics", n, len(tx.Topics))
	}
	if len(tx.Topics) == 0 {
		return nil, fmt.Errorf("taxonomy: no topics to index")
	}
	idx, err := bm25.BuildFrom(topicDocs, vocab)
	if err != nil {
		return nil, err
	}
	return &Searcher{idx: idx}, nil
}

// Tokens returns the number of tokens the searcher indexed.
func (s *Searcher) Tokens() int { return s.idx.Tokens() }

// Hit is a scored topic.
type Hit struct {
	Topic model.TopicID
	Score float64
}

// searchScratch is one request's tokenizer output, resolved term ids and
// index hits, pooled so that a search allocates only what it returns.
type searchScratch struct {
	buf   []byte
	ends  []int
	terms []uint32
	hits  []bm25.Hit
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// Search returns the k best-matching topics for a free-text query: the
// index's top k for textutil.TokenizeFiltered(query), hit for hit and
// bit for bit, computed without spelling a token as a string. The only
// allocation is the returned slice.
func (s *Searcher) Search(query string, k int) []Hit {
	return s.AppendSearch([]Hit{}, query, k)
}

// AppendSearch appends Search(query, k)'s hits to dst and returns the
// extended slice. It allocates only when dst has too little room.
func (s *Searcher) AppendSearch(dst []Hit, query string, k int) []Hit {
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	sc.buf, sc.ends = textutil.DropStopwords(textutil.AppendTokens(sc.buf[:0], sc.ends[:0], query))
	vocab := s.idx.Vocab()
	terms, start := sc.terms[:0], 0
	for _, end := range sc.ends {
		if t, ok := vocab.IDBytes(sc.buf[start:end]); ok {
			terms = append(terms, uint32(t))
		}
		start = end
	}
	sc.terms = terms
	// AppendTopK counts a repeated term once, at its first occurrence.
	sc.hits = s.idx.AppendTopK(sc.hits[:0], terms, k)
	dst = slices.Grow(dst, len(sc.hits))
	for _, h := range sc.hits {
		dst = append(dst, Hit{Topic: model.TopicID(h.Doc), Score: h.Score})
	}
	return dst
}

// Save writes the taxonomy in gob encoding.
func (tx *Taxonomy) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(tx)
}

// Load reads a gob-encoded taxonomy.
func Load(r io.Reader) (*Taxonomy, error) {
	var tx Taxonomy
	if err := gob.NewDecoder(r).Decode(&tx); err != nil {
		return nil, fmt.Errorf("taxonomy: decoding: %w", err)
	}
	if err := tx.Validate(); err != nil {
		return nil, err
	}
	return &tx, nil
}
