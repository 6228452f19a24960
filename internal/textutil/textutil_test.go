package textutil

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Beach Dress", []string{"beach", "dress"}},
		{"sunblock SPF-50!", []string{"sunblock", "spf", "50"}},
		{"  ", nil},
		{"", nil},
		{"men's wear", []string{"men", "s", "wear"}},
		{"防晒霜 spf50", []string{"防", "晒", "霜", "spf50"}},
		{"trip-to-the-beach", []string{"trip", "to", "the", "beach"}},
	}
	for _, tc := range cases {
		got := Tokenize(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeLowercases(t *testing.T) {
	got := Tokenize("BEACH")
	if len(got) != 1 || got[0] != "beach" {
		t.Fatalf("Tokenize(BEACH) = %v, want [beach]", got)
	}
}

func TestTokenizeFiltered(t *testing.T) {
	got := TokenizeFiltered("trip to the beach")
	want := []string{"trip", "beach"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeFiltered = %v, want %v", got, want)
	}
}

func TestTokenizeFilteredAllStopwords(t *testing.T) {
	// A query made entirely of stopwords must not be emptied.
	got := TokenizeFiltered("for the")
	want := []string{"for", "the"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeFiltered(all stopwords) = %v, want %v", got, want)
	}
}

func TestStopword(t *testing.T) {
	if !stopword([]byte("the")) {
		t.Error("stopword(the) = false, want true")
	}
	if stopword([]byte("beach")) {
		t.Error("stopword(beach) = true, want false")
	}
}

// Property: every token produced by Tokenize is non-empty and lowercase
// (re-tokenizing a token yields itself).
func TestTokenizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			rt := Tokenize(tok)
			if len(rt) != 1 || rt[0] != tok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVocabAddAndLookup(t *testing.T) {
	v := NewVocab()
	a := v.Add("beach")
	b := v.Add("dress")
	a2 := v.Add("beach")
	if a != a2 {
		t.Fatalf("Add(beach) twice gave ids %d and %d", a, a2)
	}
	if a == b {
		t.Fatal("distinct words got the same id")
	}
	if v.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", v.Size())
	}
	if got := v.Words()[a]; got != "beach" {
		t.Fatalf("Words()[%d] = %q, want beach", a, got)
	}
	if id, ok := v.ID("dress"); !ok || id != b {
		t.Fatalf("ID(dress) = %d,%v want %d,true", id, ok, b)
	}
	if id, ok := v.IDBytes([]byte("dress")); !ok || id != b {
		t.Fatalf("IDBytes(dress) = %d,%v want %d,true", id, ok, b)
	}
	if _, ok := v.ID("unknown"); ok {
		t.Fatal("ID(unknown) reported ok")
	}
}

// appendTokensRunes is AppendTokens without its ASCII fast path: every
// rune through the unicode tests. It is the reference the fast path must
// reproduce byte for byte.
func appendTokensRunes(buf []byte, ends []int, s string) ([]byte, []int) {
	open := false
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

// sameTokens reports whether AppendTokens and the rune-by-rune reference
// append the same bytes and ends to the same non-empty buffers.
func sameTokens(s string) (ok bool, got, want string) {
	gb, ge := AppendTokens([]byte("x"), []int{1}, s)
	wb, we := appendTokensRunes([]byte("x"), []int{1}, s)
	got, want = fmt.Sprintf("%q %v", gb, ge), fmt.Sprintf("%q %v", wb, we)
	return got == want, got, want
}

// TestAppendTokensASCII runs every ASCII rune through the fast path on
// its own, between two letters, after a digit and before a Han rune.
func TestAppendTokensASCII(t *testing.T) {
	for r := rune(0); r < utf8.RuneSelf; r++ {
		for _, s := range []string{string(r), "a" + string(r) + "b", "7" + string(r), string(r) + "防", "É" + string(r) + "É"} {
			if ok, got, want := sameTokens(s); !ok {
				t.Errorf("AppendTokens(%q) = %s, rune by rune %s", s, got, want)
			}
		}
	}
}

// FuzzAppendTokens holds AppendTokens to the rune-by-rune reference on
// arbitrary strings, invalid UTF-8 included.
func FuzzAppendTokens(f *testing.F) {
	for _, s := range []string{"Beach Dress", "sunblock SPF-50!", "防晒霜 spf50", "ÀÉÎ õü ß", "\xff\xfeA", "trip-to-the-beach", "ǅ ꞵ Ⅻ ①"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if ok, got, want := sameTokens(s); !ok {
			t.Fatalf("AppendTokens(%q) = %s, rune by rune %s", s, got, want)
		}
	})
}
