package serve

import (
	"hash/maphash"
	"net/http"
	"strconv"
	"sync/atomic"
	"unsafe"

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
// encoder as a miss.

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
	hitBytes           = int(unsafe.Sizeof(taxonomy.Hit{}))
)

// searchEntry is one stored answer: the raw query string it answers and
// the hits it renders. Entries are never mutated once stored.
type searchEntry struct {
	key  string
	hits []taxonomy.Hit
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

// storable reports whether an answer fits the entry budget. A server
// request's RawQuery is a substring of its request line, so the key
// pins the whole request target: the budget counts the longer of the
// two (RequestURI is empty on a request built in process).
func storable(r *http.Request, hits []taxonomy.Hit) bool {
	return max(len(r.URL.RawQuery), len(r.RequestURI))+cap(hits)*hitBytes <= maxEntryBytes
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

// searchHits parses a search's parameters from raw and runs the search
// on the snapshot. A request it refuses returns the 400 message.
func (s *snapshot) searchHits(raw string) ([]taxonomy.Hit, string) {
	var p [2]string
	queryParams(raw, []string{"q", "k"}, p[:])
	q, ks := p[0], p[1]
	if q == "" {
		return nil, "missing query parameter q"
	}
	if len(q) > maxQueryBytes {
		return nil, "query parameter q is longer than " + strconv.Itoa(maxQueryBytes) + " bytes"
	}
	k := 5
	if ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 || v > 100 {
			return nil, "k must be an integer in [1,100]"
		}
		k = v
	}
	if s.build.Searcher == nil {
		return nil, ""
	}
	return s.build.Searcher.Search(q, k), ""
}

// sendHits writes hits as the search response: each hit's summary head
// and its score.
func (s *snapshot) sendHits(w http.ResponseWriter, hits []taxonomy.Hit) {
	bp := body()
	send(w, bp, appendArray((*bp)[:0], len(hits), false, func(dst []byte, i int) []byte {
		dst = append(dst, s.head(hits[i].Topic)...)
		if score := hits[i].Score; score != 0 { // omitempty
			dst = appendJSONFloat(append(dst, `,"score":`...), score)
		}
		return append(dst, '}')
	}))
}
