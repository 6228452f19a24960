package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"shoal/internal/model"
	"shoal/internal/taxonomy"
)

// The hot routes write their bodies with the append encoders below into
// a pooled buffer: one Write, no reflection. What a build or its corpus
// fixes is rendered ahead of the requests by the same encoders: the
// summary heads once per snapshot, the refs once per corpus
// (newFragments). The bytes are exactly what
// encoding/json's Encoder writes for the exported wire structs
// (TopicSummary, TopicDetail, ItemRef, RelatedCategory), which stay the
// documented schema and the tests' oracle (TestWireMatchesEncodingJSON).

// jsonContentType is shared by every response: assigning it into the
// header map instead of calling Header().Set saves the per-request
// []string. net/http only reads header values.
var jsonContentType = []string{"application/json"}

// maxPooledBody is the largest body buffer returned to the pool, so one
// huge response does not pin its buffer.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// body checks a buffer out of the pool; send writes and returns it.
func body() *[]byte { return bodyPool.Get().(*[]byte) }

// send writes b plus the newline json.Encoder ends a value with as the
// 200 response, returns b's storage to bp's pool and returns the status.
func send(w http.ResponseWriter, bp *[]byte, b []byte) int {
	b = append(b, '\n')
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
	return http.StatusOK
}

// openSummary appends t's summary head: t as a TopicSummary without its
// score and closing brace, so a search hit can append its score and
// TopicDetail can continue the object. Each snapshot renders every
// topic's head once (newHeads); requests copy them.
func openSummary(dst []byte, t *taxonomy.Topic) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(t.ID), 10)
	dst = append(dst, `,"description":`...)
	dst = appendJSONString(dst, t.Description)
	dst = append(dst, `,"level":`...)
	dst = strconv.AppendInt(dst, int64(t.Level), 10)
	dst = append(dst, `,"items":`...)
	dst = strconv.AppendInt(dst, int64(len(t.Items)), 10)
	dst = append(dst, `,"categories":`...)
	return strconv.AppendInt(dst, int64(len(t.Categories)), 10)
}

// openRef appends the fields of a CategoryRef or ItemRef head —
// {"id":<id>,"<key>":"<name>" — without the closing brace.
func openRef(dst []byte, id int64, key, name string) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, id, 10)
	dst = append(dst, ",\""...)
	dst = append(dst, key...)
	dst = append(dst, "\":"...)
	return appendJSONString(dst, name)
}

// table is a run of pre-rendered JSON fragments: buf[off[i]:off[i+1]] is
// fragment i.
type table struct {
	buf []byte
	off []int32
}

// at returns fragment i.
func (t *table) at(i int) []byte { return t.buf[t.off[i]:t.off[i+1]] }

// render lays fragments 0..n-1 out as a table: size(i) is fragment i's
// length if its strings need no escape, and add appends it. The sizes
// come first, so the table is rendered at its exact size in one
// allocation unless an escape lengthened a string, which regrows it and
// copies it out once.
func render(n int, size func(i int) int, add func(dst []byte, i int) []byte) table {
	total := 0
	for i := range n {
		total += size(i)
	}
	t := table{buf: make([]byte, 0, total), off: make([]int32, n+1)}
	for i := range n {
		t.buf = add(t.buf, i)
		t.off[i+1] = int32(len(t.buf))
	}
	if len(t.buf) > total {
		t.buf = append(make([]byte, 0, len(t.buf)), t.buf...)
	}
	return t
}

// newHeads renders every topic's summary head (openSummary), by id.
func newHeads(topics []taxonomy.Topic) table {
	return render(len(topics), func(i int) int {
		t := &topics[i]
		return len(`{"id":,"description":"","level":,"items":,"categories":`) + decimalLen(int(t.ID)) +
			len(t.Description) + decimalLen(t.Level) + decimalLen(len(t.Items)) + decimalLen(len(t.Categories))
	}, func(dst []byte, i int) []byte { return openSummary(dst, &topics[i]) })
}

// newFragments renders c's fragment table (fragments): every item's
// ItemRef object, closed, then every category's CategoryRef head, open,
// by id.
func newFragments(c *model.Corpus) *fragments {
	items := len(c.Items)
	return &fragments{items: items, table: render(items+len(c.Categories), func(i int) int {
		if i < items {
			return len(`{"id":,"title":"","category":}`) + decimalLen(i) + len(c.Items[i].Title) + decimalLen(int(c.Items[i].Category))
		}
		return len(`{"id":,"name":""`) + decimalLen(i-items) + len(c.Categories[i-items].Name)
	}, func(dst []byte, i int) []byte {
		if i < items {
			it := &c.Items[i]
			dst = append(openRef(dst, int64(i), "title", it.Title), `,"category":`...)
			return append(strconv.AppendInt(dst, int64(it.Category), 10), '}')
		}
		return openRef(dst, int64(i-items), "name", c.Categories[i-items].Name)
	})}
}

// decimalLen is the length of v ≥ 0 in decimal.
func decimalLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// appendArray appends elements 0..n-1 as a JSON array, or null for a nil
// slice, as encoding/json writes one.
func appendArray(dst []byte, n int, isNil bool, elem func(dst []byte, i int) []byte) []byte {
	if isNil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, i)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// shortEscape is encoding/json's two-byte escape of a byte, where it has
// one; every other byte it escapes becomes \u00XX.
var shortEscape = [...]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// appendJSONString appends s quoted as encoding/json quotes it: '"', '\\'
// and control bytes escaped, the HTML characters < > & as \u00XX,
// invalid UTF-8 as \ufffd, and U+2028 / U+2029 (JavaScript line
// terminators) escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= 0x20 && b < utf8.RuneSelf && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		c, size := rune(b), 1
		if b >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
			if (c != utf8.RuneError || size != 1) && c != 0x2028 && c != 0x2029 {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		if int(b) < len(shortEscape) && shortEscape[b] != 0 {
			dst = append(dst, '\\', shortEscape[b])
		} else { // invalid UTF-8 decodes as utf8.RuneError, U+FFFD
			dst = append(dst, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xF], hexDigits[c>>4&0xF], hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendScore appends r's score as encoding/json formats the float64 it
// was made from: the shortest decimal in 'f' form, or in 'e' form
// outside [1e-6, 1e21) with a two-digit negative exponent trimmed
// (e-09 → e-9). A shortest decimal parses back to its float, so it is
// below 1e-6 exactly when its exponent is -7 or less, and at least 1e21
// exactly when its exponent is 21 or more.
func (r *hitRecord) appendScore(dst []byte) []byte {
	var buf [20]byte
	d := strconv.AppendUint(buf[:0], r.digits, 10)
	if r.neg {
		dst = append(dst, '-')
	}
	exp := int(r.exp)
	switch {
	case exp <= -7 || exp >= 21:
		dst = append(dst, d[0])
		if len(d) > 1 {
			dst = append(append(dst, '.'), d[1:]...)
		}
		if dst = append(dst, 'e', '+'); exp < 0 {
			dst[len(dst)-1] = '-'
			exp = -exp
		}
		return strconv.AppendInt(dst, int64(exp), 10)
	case exp < 0: // 0.000ddd
		dst = append(dst, "0.00000"[:1-exp]...)
		return append(dst, d...)
	case exp+1 < len(d): // dd.ddd
		dst = append(append(dst, d[:exp+1]...), '.')
		return append(dst, d[exp+1:]...)
	default: // ddd000
		dst = append(dst, d...)
		for i := len(d); i <= exp; i++ {
			dst = append(dst, '0')
		}
		return dst
	}
}

// queryParams sets vals[i] to url.ParseQuery(raw).Get(keys[i]) in one
// pass over raw, without building the url.Values map: the first value
// of a key wins, pairs containing ';' are skipped, keys and values are
// unescaped, and a pair whose key or value has a bad escape is skipped.
// Keys not found read "". At most 64 keys.
func queryParams(raw string, keys, vals []string) {
	var found uint64
	for raw != "" && found != 1<<len(keys)-1 {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		for i, key := range keys {
			if k != key || found&(1<<i) != 0 {
				continue
			}
			if v, err := url.QueryUnescape(v); err == nil {
				vals[i] = v
				found |= 1 << i
			}
		}
	}
}
