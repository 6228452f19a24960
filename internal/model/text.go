package model

import "shoal/internal/textutil"

// TextPlane is the corpus-static text view: every item title, query text
// and category name segmented once and interned to dense term ids. The
// click window moves daily, the catalog's words do not (the paper
// segments titles once, §2.1), so every consumer of token lists —
// entity formation, word2vec sentences, describe's pseudo documents,
// the search documents — reads them from here instead of re-running the
// tokenizer. Token lists are exactly textutil.Tokenize(title),
// textutil.TokenizeFiltered(query text) and textutil.Tokenize(category
// name), spelled as ids into one shared vocabulary.
//
// A TextPlane is immutable after construction and safe for concurrent
// readers. Returned id slices alias its storage: read, never write.
type TextPlane struct {
	vocab *textutil.Vocab
	words []string // vocab.Words(): term id → token
	// titles, queries and categories hold one id list per item, query and
	// category, indexed by their dense ids.
	titles, queries, categories tokenLists
}

// tokenLists is a CSR of token-id lists: list i is ids[off[i]:off[i+1]].
type tokenLists struct {
	off []int32
	ids []uint32
}

func (l *tokenLists) at(i int) []uint32 { return l.ids[l.off[i]:l.off[i+1]] }

// internAll tokenizes n texts into reused buffers (textutil.AppendTokens,
// then DropStopwords when filtered) and interns their tokens into v. A
// known token costs one lookup and no string; only a new one is spelled,
// so ids keep their first-Add order.
func internAll(v *textutil.Vocab, n int, text func(int) string, filtered bool) tokenLists {
	l := tokenLists{off: make([]int32, n+1)}
	var buf []byte
	var ends []int
	for i := 0; i < n; i++ {
		buf, ends = textutil.AppendTokens(buf[:0], ends[:0], text(i))
		if filtered {
			buf, ends = textutil.DropStopwords(buf, ends)
		}
		start := 0
		for _, end := range ends {
			tok := buf[start:end]
			start = end
			id, ok := v.IDBytes(tok)
			if !ok {
				id = v.Add(string(tok))
			}
			l.ids = append(l.ids, uint32(id))
		}
		l.off[i+1] = int32(len(l.ids))
	}
	return l
}

func newTextPlane(c *Corpus) *TextPlane {
	v := textutil.NewVocab()
	p := &TextPlane{vocab: v}
	p.titles = internAll(v, len(c.Items), func(i int) string { return c.Items[i].Title }, false)
	p.queries = internAll(v, len(c.Queries), func(i int) string { return c.Queries[i].Text }, true)
	p.categories = internAll(v, len(c.Categories), func(i int) string { return c.Categories[i].Name }, false)
	p.words = v.Words()
	return p
}

// Text returns the corpus's text plane, building it on first use
// (concurrent first callers build it once). It reads Items, Queries and
// Categories, which must not change afterwards — see Corpus.
func (c *Corpus) Text() *TextPlane {
	c.textOnce.Do(func() { c.text = newTextPlane(c) })
	return c.text
}

// Vocab is the plane's vocabulary: term id ↔ token for every id the
// plane hands out. Shared and frozen — look up, never Add.
func (p *TextPlane) Vocab() *textutil.Vocab { return p.vocab }

// Title returns textutil.Tokenize of the item's title as term ids.
func (p *TextPlane) Title(it ItemID) []uint32 { return p.titles.at(int(it)) }

// Query returns textutil.TokenizeFiltered of the query's text as term ids.
func (p *TextPlane) Query(q QueryID) []uint32 { return p.queries.at(int(q)) }

// Category returns textutil.Tokenize of the category's name as term ids.
func (p *TextPlane) Category(cat CategoryID) []uint32 { return p.categories.at(int(cat)) }

// AppendTerms appends the tokens of ids to dst: a string-header copy per
// token, no hashing and no allocation beyond dst's growth.
func (p *TextPlane) AppendTerms(dst []string, ids []uint32) []string {
	for _, id := range ids {
		dst = append(dst, p.words[id])
	}
	return dst
}
