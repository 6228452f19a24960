package textutil

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Vocab maps word strings to dense integer ids and records corpus
// frequencies. Downstream stages (word2vec, BM25) operate on ids only.
type Vocab struct {
	ids    map[string]int
	words  []string
	counts []int64
	total  int64
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: make(map[string]int)}
}

// Add inserts tok (or bumps its count) and returns its id.
func (v *Vocab) Add(tok string) int {
	if id, ok := v.ids[tok]; ok {
		v.counts[id]++
		v.total++
		return id
	}
	id := len(v.words)
	v.ids[tok] = id
	v.words = append(v.words, tok)
	v.counts = append(v.counts, 1)
	v.total++
	return id
}

// Clone returns an independent copy: the same ids, words and counts,
// open to Adds that the original never sees.
func (v *Vocab) Clone() *Vocab {
	return &Vocab{ids: maps.Clone(v.ids), words: slices.Clone(v.words), counts: slices.Clone(v.counts), total: v.total}
}

// Intern spells token documents as term ids of a new vocabulary built
// from them, ids in first-occurrence order, into one shared backing
// array.
func Intern(docs [][]string) ([][]uint32, *Vocab) {
	total := 0
	for _, doc := range docs {
		total += len(doc)
	}
	v := NewVocab()
	flat := make([]uint32, 0, total)
	ids := make([][]uint32, len(docs))
	for d, doc := range docs {
		from := len(flat)
		for _, tok := range doc {
			flat = append(flat, uint32(v.Add(tok)))
		}
		ids[d] = flat[from:len(flat):len(flat)]
	}
	return ids, v
}

// AddAll inserts every token and returns their ids.
func (v *Vocab) AddAll(toks []string) []int {
	out := make([]int, len(toks))
	for i, t := range toks {
		out[i] = v.Add(t)
	}
	return out
}

// ID returns the id of tok and whether it is known. It does not modify
// counts.
func (v *Vocab) ID(tok string) (int, bool) {
	id, ok := v.ids[tok]
	return id, ok
}

// IDBytes is ID for a token in an AppendTokens buffer; the lookup does
// not allocate.
func (v *Vocab) IDBytes(tok []byte) (int, bool) {
	id, ok := v.ids[string(tok)]
	return id, ok
}

// Word returns the token for id. It panics on out-of-range ids, which always
// indicates a programming error.
func (v *Vocab) Word(id int) string {
	if id < 0 || id >= len(v.words) {
		panic(fmt.Sprintf("textutil: word id %d out of range [0,%d)", id, len(v.words)))
	}
	return v.words[id]
}

// Count returns the corpus frequency of id.
func (v *Vocab) Count(id int) int64 {
	if id < 0 || id >= len(v.counts) {
		return 0
	}
	return v.counts[id]
}

// Size returns the number of distinct tokens.
func (v *Vocab) Size() int { return len(v.words) }

// Words returns the id-indexed token table itself, for callers that turn
// many ids back into strings and cannot afford Word's bounds check per
// token. The slice is the vocabulary's own storage: read it, never
// write it, and re-fetch it after an Add.
func (v *Vocab) Words() []string { return v.words }

// Total returns the number of token occurrences added.
func (v *Vocab) Total() int64 { return v.total }

// TopK returns the k most frequent tokens, most frequent first; ties break
// alphabetically so output is deterministic.
func (v *Vocab) TopK(k int) []string {
	idx := make([]int, len(v.words))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if v.counts[ia] != v.counts[ib] {
			return v.counts[ia] > v.counts[ib]
		}
		return v.words[ia] < v.words[ib]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = v.words[idx[i]]
	}
	return out
}
