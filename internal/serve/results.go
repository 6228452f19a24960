package serve

import (
	"hash/maphash"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/taxonomy"
)

// Each snapshot answers repeated searches from a search result table:
// fixed-size and direct-mapped, keyed by the request's raw query string
// as it came in, filled on first use. Search traffic is head-heavy (a
// few queries make most requests), and a snapshot's searcher is
// immutable, so a raw query string it answered once it answers the
// same way until the snapshot is swapped out — and the table goes with
// it, so no swap can serve a stale answer.
//
// A slot holds an atomic pointer to an immutable entry and the hash of
// its key; a miss overwrites its slot, so there is no lock and no
// eviction policy. The slot index is a maphash of the key under a random
// seed of the snapshot's, so crafted queries cannot aim at one slot. A
// lookup compares the stored hash before it reads the entry, so a miss
// whose slot holds another query's answer does not read that answer's
// memory, which halved the table's cost on a miss. The table stores
// hits, not bodies: a hit renders them through the same heads and
// encoder as a miss. Each stored hit is a 16-byte hitRecord that keeps
// its score as the shortest decimal that parses back to it, worked out
// once when the answer is stored, so a hit only places digits where
// formatting the float64 would search for them again.

const (
	// minSearchSlots and maxSearchSlots clamp a table's slot count,
	// which is the smallest power of two at least twice the corpus's
	// query count.
	minSearchSlots = 1 << 10
	maxSearchSlots = 1 << 14
	// maxEntryBytes bounds what one stored answer pins: the request
	// target its key was cut from plus its hits. A larger answer is
	// served but not stored.
	maxEntryBytes = 512
	// entryOverheadBytes is what an entry pins beyond maxEntryBytes: the
	// entry itself, the request line around its target and size-class
	// rounding. A table retains at most its slots times
	// maxEntryBytes + entryOverheadBytes (≈ 10.5 MB at maxSearchSlots),
	// besides the 16-byte slots themselves.
	entryOverheadBytes = 128
	hitBytes           = int(unsafe.Sizeof(hitRecord{}))
)

// searchEntry is one stored answer: the raw query string it answers and
// the hits it renders. Entries are never mutated once stored.
type searchEntry struct {
	key  string
	hits []hitRecord
}

// hitRecord is one hit of an answer as the answer renders it: the topic
// and the score as its shortest decimal, ±digits × 10^(exp−n+1) for the
// n digits of digits, that is ±d.ddd × 10^exp. The shortest decimal is
// what encoding/json prints, so appendScore only places the digits.
type hitRecord struct {
	digits uint64
	topic  model.TopicID
	exp    int16
	neg    bool
}

// newHitRecord returns h as a record: strconv's shortest 'e' form of
// h.Score, ±d.ddde±xx, parsed back into digits and exponent. The score
// must be finite, as every BM25 score is.
func newHitRecord(h taxonomy.Hit) hitRecord {
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], h.Score, 'e', -1, 64)
	r := hitRecord{topic: h.Topic, neg: s[0] == '-'}
	if r.neg {
		s = s[1:]
	}
	i := 0
	for ; s[i] != 'e'; i++ {
		if s[i] != '.' {
			r.digits = r.digits*10 + uint64(s[i]-'0')
		}
	}
	exp := 0
	for _, c := range s[i+2:] {
		exp = exp*10 + int(c-'0')
	}
	if s[i+1] == '-' {
		exp = -exp
	}
	r.exp = int16(exp)
	return r
}

// appendRecords appends hits as records to dst.
func appendRecords(dst []hitRecord, hits []taxonomy.Hit) []hitRecord {
	for _, h := range hits {
		dst = append(dst, newHitRecord(h))
	}
	return dst
}

// searchSlots is the slot count of a table for a corpus of the given
// number of queries.
func searchSlots(queries int) int {
	n := minSearchSlots
	for n < 2*queries && n < maxSearchSlots {
		n <<= 1
	}
	return n
}

// searchSlot is one slot of a table: the stored entry and the maphash
// of its key.
type searchSlot struct {
	hash  atomic.Uint64
	entry atomic.Pointer[searchEntry]
}

// lookup returns the slot of a raw query string and the string's hash,
// and the slot's entry if it answers raw. The stored hash only filters:
// a store writes the hash and then the entry, so two racing stores can
// leave one's hash beside the other's entry, and the key decides a hit.
func (s *snapshot) lookup(raw string) (*searchSlot, uint64, *searchEntry) {
	h := maphash.String(s.seed, raw)
	slot := &s.results[h&uint64(len(s.results)-1)]
	if slot.hash.Load() == h {
		if e := slot.entry.Load(); e != nil && e.key == raw {
			return slot, h, e
		}
	}
	return slot, h, nil
}

// store puts an answer to the raw query string of hash h in the slot.
func (slot *searchSlot) store(h uint64, e *searchEntry) {
	slot.hash.Store(h)
	slot.entry.Store(e)
}

// storable reports whether an answer of n hits fits the entry budget. A
// server request's RawQuery is a substring of its request line, so the
// key pins the whole request target: the budget counts the longer of
// the two (RequestURI is empty on a request built in process). A stored
// answer's records are allocated at their exact size.
func storable(r *http.Request, n int) bool {
	return max(len(r.URL.RawQuery), len(r.RequestURI))+n*hitBytes <= maxEntryBytes
}

// How a search was answered, the label of shoal_search_cache_total: from
// the table, searched and stored, or answered without the table (a 400,
// or an answer too large to store).
const (
	resultHit = iota
	resultMiss
	resultBypass
	numResults
)

var resultLabels = [numResults]string{"hit", "miss", "bypass"}

// newResultCounters registers the table's counters in reg.
func newResultCounters(reg *obs.Registry) (c [numResults]*obs.Counter) {
	for i, label := range resultLabels {
		c[i] = reg.Counter("shoal_search_cache_total", `result="`+label+`"`,
			"searches by how the snapshot's result table answered them")
	}
	return c
}

// SearchCacheStat is the search result table's section of /api/stats:
// the current snapshot's slot count and the handler's searches by how
// they were answered, summed over every snapshot it has served.
type SearchCacheStat struct {
	Slots    int    `json:"slots"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Bypasses uint64 `json:"bypasses"`
}

// maxQueryBytes bounds a search's q. Term de-duplication is quadratic in
// the query's terms, and the server's header limit alone admits ≈16 KB.
const maxQueryBytes = 1024

// searchScratch is a miss's pooled scratch: the search's own, the
// searcher's hits, and the records of an answer that is not stored. It
// serves any snapshot, so its scoring arrays outlive swaps.
type searchScratch struct {
	search taxonomy.SearchScratch
	hits   []taxonomy.Hit
	recs   []hitRecord
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// searchHits parses a search's parameters from raw and searches the
// snapshot into sc.hits. A request it refuses returns the 400 message.
func (s *snapshot) searchHits(sc *searchScratch, raw string) string {
	var p [2]string
	queryParams(raw, []string{"q", "k"}, p[:])
	q, ks := p[0], p[1]
	if q == "" {
		return "missing query parameter q"
	}
	if len(q) > maxQueryBytes {
		return "query parameter q is longer than " + strconv.Itoa(maxQueryBytes) + " bytes"
	}
	k := 5
	if ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 || v > 100 {
			return "k must be an integer in [1,100]"
		}
		k = v
	}
	sc.hits = sc.hits[:0]
	if s.build.Searcher != nil {
		sc.hits = s.build.Searcher.AppendSearch(&sc.search, sc.hits, q, k)
	}
	return ""
}

// sendHits writes hits as the search response, each hit's summary head
// and its score, and returns the status.
func (s *snapshot) sendHits(w http.ResponseWriter, hits []hitRecord) int {
	bp := body()
	return send(w, bp, appendArray((*bp)[:0], len(hits), false, func(dst []byte, i int) []byte {
		dst = append(dst, s.head(hits[i].topic)...)
		if hits[i].digits != 0 { // omitempty: the score is ±0
			dst = hits[i].appendScore(append(dst, `,"score":`...))
		}
		return append(dst, '}')
	}))
}
