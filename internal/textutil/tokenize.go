// Package textutil provides the text-processing substrate SHOAL depends on:
// a unicode-aware tokenizer, a stopword filter, and a vocabulary interner.
//
// The paper segments item titles into words before feeding them to word2vec
// (§2.1, Eq. 2) and tokenizes queries for description matching (§2.3). The
// production system uses Alibaba's internal segmenter; this package is the
// stdlib-only stand-in, adequate for space-separated synthetic corpora and
// for western-language text.
package textutil

import (
	"unicode"
	"unicode/utf8"
)

// Tokenize splits s into lowercase word tokens. Letters and digits form
// tokens; everything else separates them. CJK ideographs are emitted as
// single-rune tokens, which approximates character-level segmentation for
// Chinese titles. It is AppendTokens with the tokens spelled as strings.
func Tokenize(s string) []string {
	buf, ends := AppendTokens(nil, nil, s)
	if len(ends) == 0 {
		return nil
	}
	all := string(buf)
	toks := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		toks[i] = all[start:end]
		start = end
	}
	return toks
}

// AppendTokens is the tokenizer: it appends the lowercased tokens of s
// to buf back to back and the end offset in buf of each to ends. Pass
// both empty and token i is buf[ends[i-1]:ends[i]] (the first starts at
// 0). Reusing the two buffers across calls makes tokenizing
// allocation-free.
func AppendTokens(buf []byte, ends []int, s string) ([]byte, []int) {
	open := false // a letter/digit run is being appended
	for _, r := range s {
		switch {
		case unicode.In(r, unicode.Han):
			if open {
				ends = append(ends, len(buf))
			}
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
			ends = append(ends, len(buf))
			open = false
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
			open = true
		default:
			if open {
				ends = append(ends, len(buf))
			}
			open = false
		}
	}
	if open {
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// defaultStopwords are high-frequency function words that carry no shopping
// intent. Kept deliberately small: over-aggressive stopping hurts short
// queries like "for breakfast" (Fig. 4).
var defaultStopwords = map[string]bool{
	"a": true, "an": true, "and": true, "at": true, "by": true,
	"for": true, "from": true, "in": true, "of": true, "on": true,
	"or": true, "the": true, "to": true, "with": true,
}

// StopwordBytes reports whether a token in an AppendTokens buffer is in
// the default stopword list; the lookup does not allocate.
func StopwordBytes(tok []byte) bool { return defaultStopwords[string(tok)] }

// TokenizeFiltered tokenizes s and drops stopwords. If every token is a
// stopword the unfiltered tokens are returned instead, so short queries are
// never emptied.
func TokenizeFiltered(s string) []string {
	toks := Tokenize(s)
	kept := toks[:0:0]
	for _, t := range toks {
		if !defaultStopwords[t] {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		return toks
	}
	return kept
}
