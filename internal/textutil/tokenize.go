// Package textutil provides the text-processing substrate SHOAL depends on:
// a unicode-aware tokenizer, a stopword filter, and a vocabulary interner.
//
// The paper segments item titles into words before feeding them to word2vec
// (§2.1, Eq. 2) and tokenizes queries for description matching (§2.3). The
// production system uses Alibaba's internal segmenter; this package is the
// stdlib-only stand-in, adequate for space-separated synthetic corpora and
// for western-language text.
//
// AppendTokens decides ASCII runes by byte ranges (A-Z lowercased,
// a-z and 0-9 kept, everything else a separator), which is what the
// unicode tests decide for them without the table searches; every other
// rune takes the unicode path. FuzzAppendTokens holds the two to the
// same bytes and ends.
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
	return spell(AppendTokens(nil, nil, s))
}

// spell returns the tokens of an AppendTokens buffer as strings, all
// substrings of one copy of buf; no tokens is nil.
func spell(buf []byte, ends []int) []string {
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
		if r < utf8.RuneSelf {
			// ASCII by byte ranges (see the package doc).
			switch {
			case 'a' <= r && r <= 'z' || '0' <= r && r <= '9':
				buf = append(buf, byte(r))
				open = true
			case 'A' <= r && r <= 'Z':
				buf = append(buf, byte(r)+'a'-'A')
				open = true
			default:
				if open {
					ends = append(ends, len(buf))
				}
				open = false
			}
			continue
		}
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

// stopword reports whether a token is in the default stopword list; the
// lookup does not allocate.
func stopword(tok []byte) bool { return defaultStopwords[string(tok)] }

// DropStopwords is the stopword rule: it removes the stopwords from an
// AppendTokens buffer in place, unless every token is one, so a short
// query is never emptied. It returns the shortened buffer and ends, in
// AppendTokens' layout, and allocates nothing.
func DropStopwords(buf []byte, ends []int) ([]byte, []int) {
	n, kept, start := 0, 0, 0
	for _, end := range ends {
		tok := buf[start:end]
		start = end
		if stopword(tok) {
			continue
		}
		n += copy(buf[n:], tok)
		ends[kept] = n
		kept++
	}
	if kept == 0 {
		// Every token is a stopword, and nothing was moved.
		return buf, ends
	}
	return buf[:n], ends[:kept]
}

// TokenizeFiltered is Tokenize with DropStopwords applied.
func TokenizeFiltered(s string) []string {
	return spell(DropStopwords(AppendTokens(nil, nil, s)))
}
