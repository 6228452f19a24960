package taxonomy

import (
	"context"
	"fmt"
	"io"
	"sync"

	"encoding/gob"
	"encoding/json"

	"shoal/internal/bm25"
	"shoal/internal/model"
	"shoal/internal/textutil"
)

// Searcher answers Query→Topic lookups (demo scenario A) with BM25 over
// per-topic pseudo documents.
type Searcher struct {
	idx    *bm25.Index
	topics []model.TopicID
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
// ids of vocab — the corpus text plane's vocabulary in a pipeline build.
// The searcher resolves query tokens in vocab, which must not change
// while it is in use. Hits and scores equal NewSearcher's over the same
// documents spelled as strings, bit for bit: BM25 depends on which
// tokens match, not on how terms are numbered.
func NewSearcherIDs(ctx context.Context, tx *Taxonomy, topicDocs [][]uint32, vocab *textutil.Vocab) (*Searcher, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(topicDocs) != len(tx.Topics) {
		return nil, fmt.Errorf("taxonomy: %d docs for %d topics", len(topicDocs), len(tx.Topics))
	}
	if len(topicDocs) == 0 {
		return nil, fmt.Errorf("taxonomy: no topics to index")
	}
	idx, err := bm25.BuildIDs(topicDocs, vocab, bm25.DefaultConfig())
	if err != nil {
		return nil, err
	}
	topics := make([]model.TopicID, len(tx.Topics))
	for i := range topics {
		topics[i] = tx.Topics[i].ID
	}
	return &Searcher{idx: idx, topics: topics}, nil
}

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
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	sc.buf, sc.ends = textutil.AppendTokens(sc.buf[:0], sc.ends[:0], query)
	// TokenizeFiltered drops stopwords unless every token is one.
	allStop, start := true, 0
	for _, end := range sc.ends {
		if !textutil.StopwordBytes(sc.buf[start:end]) {
			allStop = false
			break
		}
		start = end
	}
	vocab := s.idx.Vocab()
	terms, start := sc.terms[:0], 0
	for _, end := range sc.ends {
		tok := sc.buf[start:end]
		start = end
		if !allStop && textutil.StopwordBytes(tok) {
			continue
		}
		if t, ok := vocab.IDBytes(tok); ok {
			terms = append(terms, uint32(t))
		}
	}
	sc.terms = terms
	// AppendTopK counts a repeated term once, at its first occurrence.
	sc.hits = s.idx.AppendTopK(sc.hits[:0], terms, k)
	out := make([]Hit, len(sc.hits))
	for i, h := range sc.hits {
		out[i] = Hit{Topic: s.topics[h.Doc], Score: h.Score}
	}
	return out
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

// SaveJSON writes the taxonomy as indented JSON (the interchange format of
// cmd/shoal-build).
func (tx *Taxonomy) SaveJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tx)
}

// LoadJSON reads a JSON taxonomy.
func LoadJSON(r io.Reader) (*Taxonomy, error) {
	var tx Taxonomy
	if err := json.NewDecoder(r).Decode(&tx); err != nil {
		return nil, fmt.Errorf("taxonomy: decoding JSON: %w", err)
	}
	if err := tx.Validate(); err != nil {
		return nil, err
	}
	return &tx, nil
}
