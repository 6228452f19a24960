package textutil

// Vocab interns word strings as dense integer ids, in first-Add order.
// Downstream stages (BM25, the corpus text plane) operate on ids only.
type Vocab struct {
	ids   map[string]int
	words []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: make(map[string]int)}
}

// Add interns tok and returns its id: the existing one if tok is known.
func (v *Vocab) Add(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	id := len(v.words)
	v.ids[tok] = id
	v.words = append(v.words, tok)
	return id
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

// ID returns the id of tok and whether it is known.
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

// Size returns the number of distinct tokens.
func (v *Vocab) Size() int { return len(v.words) }

// Words returns the id-indexed token table itself, for callers that turn
// ids back into strings. The slice is the vocabulary's own storage: read
// it, never write it, and re-fetch it after an Add.
func (v *Vocab) Words() []string { return v.words }
