package serve

import (
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"shoal/internal/taxonomy"
)

// The hot routes write their bodies with the append encoders below into
// a pooled buffer: one Write, no reflection. The bytes are exactly what
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
// 200 response, and returns b's storage to bp's pool.
func send(w http.ResponseWriter, bp *[]byte, b []byte) {
	b = append(b, '\n')
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
}

// openSummary appends t's summary head: t as a TopicSummary without its
// score and closing brace, so a search hit can append its score and
// TopicDetail can continue the object. Each snapshot renders every
// topic's head once (newSnapshot); requests copy them.
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

// appendJSONFloat appends a finite f as encoding/json formats a float64:
// the shortest repr in 'f' form, or in 'e' form outside [1e-6, 1e21),
// with a two-digit negative exponent trimmed (e-09 → e-9).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
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
