package bm25

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"shoal/internal/textutil"
)

// refIndex is the reference the CSR index is held bit-identical to: a
// posting slice per term string, built through a per-document tf map
// with the terms of each document visited in sorted order.
type refIndex struct {
	postings map[string][]posting
	docLen   []int
	avgLen   float64
	n        int
}

func buildRef(docs [][]string) *refIndex {
	r := &refIndex{postings: make(map[string][]posting), docLen: make([]int, len(docs)), n: len(docs)}
	total := 0
	for d, doc := range docs {
		r.docLen[d] = len(doc)
		total += len(doc)
		tf := make(map[string]int32, len(doc))
		for _, tok := range doc {
			tf[tok]++
		}
		terms := make([]string, 0, len(tf))
		for tok := range tf {
			terms = append(terms, tok)
		}
		sort.Strings(terms)
		for _, tok := range terms {
			r.postings[tok] = append(r.postings[tok], posting{doc: int32(d), tf: tf[tok]})
		}
	}
	r.avgLen = float64(total) / float64(len(docs))
	if r.avgLen == 0 {
		r.avgLen = 1
	}
	return r
}

func (r *refIndex) termScore(term string, p posting) float64 {
	df := len(r.postings[term])
	idf := math.Log((float64(r.n)-float64(df)+0.5)/(float64(df)+0.5) + 1)
	if idf < 0 {
		idf = 0
	}
	tf := float64(p.tf)
	dl := float64(r.docLen[p.doc])
	denom := tf + okapiK1*(1-okapiB+okapiB*dl/r.avgLen)
	return idf * tf * (okapiK1 + 1) / denom
}

// scoreAll accumulates terms in first-occurrence order and each term's
// postings in ascending document order, returning ascending-doc hits.
func (r *refIndex) scoreAll(query []string) []Hit {
	scores := make(map[int]float64)
	seen := make(map[string]bool)
	for _, term := range query {
		if seen[term] {
			continue
		}
		seen[term] = true
		for _, p := range r.postings[term] {
			scores[int(p.doc)] += r.termScore(term, p)
		}
	}
	hits := make([]Hit, 0, len(scores))
	for d, s := range scores {
		hits = append(hits, Hit{Doc: d, Score: s})
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].Doc < hits[b].Doc })
	return hits
}

func (r *refIndex) topK(query []string, k int) []Hit {
	hits := r.scoreAll(query)
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].Score > hits[b].Score })
	return hits[:min(k, len(hits))]
}

func sameHits(a, b []Hit) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d hits, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return fmt.Errorf("hit %d = {%d %x}, want {%d %x}", i,
				a[i].Doc, math.Float64bits(a[i].Score), b[i].Doc, math.Float64bits(b[i].Score))
		}
	}
	return nil
}

// TestIndexMatchesReference holds Build and BuildFrom bit-identical to the
// map-based reference on random collections: skewed term frequencies,
// empty documents, repeated terms inside documents and queries, and
// out-of-vocabulary query terms. One scratch scores every index of every
// trial, larger and smaller ones in turn.
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := new(Scratch)
	for trial := 0; trial < 20; trial++ {
		nTerms := 5 + rng.Intn(60)
		word := func() string {
			// Squaring skews toward low ids: a few frequent terms.
			f := rng.Float64()
			return fmt.Sprintf("w%d", int(f*f*float64(nTerms)))
		}
		docs := make([][]string, 1+rng.Intn(40))
		for d := range docs {
			if rng.Intn(6) == 0 {
				continue // empty document
			}
			docs[d] = make([]string, 1+rng.Intn(30))
			for i := range docs[d] {
				docs[d][i] = word()
			}
		}
		ref := buildRef(docs)

		// The id entry point is fed a vocabulary that is a superset of the
		// collection's terms, interned in an unrelated order.
		vocab := textutil.NewVocab()
		for i := nTerms + 3; i >= 0; i-- {
			vocab.Add(fmt.Sprintf("w%d", i))
		}
		idDocs := make([][]uint32, len(docs))
		for d, doc := range docs {
			for _, tok := range doc {
				id, _ := vocab.ID(tok)
				idDocs[d] = append(idDocs[d], uint32(id))
			}
		}
		fromStrings, err := Build(docs)
		if err != nil {
			t.Fatal(err)
		}
		fromIDs, err := BuildFrom(IDs(idDocs), vocab)
		if err != nil {
			t.Fatal(err)
		}

		for name, idx := range map[string]*Index{"Build": fromStrings, "BuildFrom": fromIDs} {
			for qi := 0; qi < 30; qi++ {
				query := make([]string, rng.Intn(6))
				for i := range query {
					switch rng.Intn(5) {
					case 0:
						query[i] = "oov" + word()
					case 1:
						if i > 0 {
							query[i] = query[i-1] // duplicate term
							break
						}
						fallthrough
					default:
						query[i] = word()
					}
				}
				k := 1 + rng.Intn(8)
				if err := sameHits(idx.TopK(sc, query, k), ref.topK(query, k)); err != nil {
					t.Fatalf("trial %d %s TopK(%v, %d): %v", trial, name, query, k, err)
				}
				// The id form: known terms with their repeats, appended
				// behind a prefix it must keep.
				ids := termIDs(idx, query)
				if err := sameHits(idx.ScoreIDs(sc, ids), ref.scoreAll(query)); err != nil {
					t.Fatalf("trial %d %s ScoreIDs(%v): %v", trial, name, ids, err)
				}
				got := idx.AppendTopK(sc, []Hit{{Doc: -1}}, ids, k)
				if got[0].Doc != -1 {
					t.Fatalf("trial %d %s AppendTopK overwrote its prefix: %v", trial, name, got)
				}
				if err := sameHits(got[1:], ref.topK(query, k)); err != nil {
					t.Fatalf("trial %d %s AppendTopK(%v, %d): %v", trial, name, ids, k, err)
				}
			}
		}
	}
}

func TestBuildIDsRejectsForeignTermID(t *testing.T) {
	vocab := textutil.NewVocab()
	vocab.Add("a")
	if _, err := BuildFrom(IDs{{0, 1}}, vocab); err == nil {
		t.Fatal("term id outside the vocabulary accepted")
	}
}

// TestBuildIDsIdenticalAcrossWidths holds BuildFrom over id documents,
// which it splits into GOMAXPROCS ranges, to the same index at every width:
// postings, each term's span and idf bits, document lengths and the
// average length. With foreign term ids in several documents, the error
// names the lowest of them at every width.
func TestBuildIDsIdenticalAcrossWidths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(23))
	vocab := textutil.NewVocab()
	for i := range 300 {
		vocab.Add(fmt.Sprintf("w%d", i))
	}
	docs := make([][]uint32, 500)
	for d := range docs {
		if rng.Intn(8) == 0 {
			continue // empty document
		}
		// Lengths vary by two orders of magnitude, so the cost-balanced
		// ranges hold very different document counts.
		docs[d] = make([]uint32, 1+rng.Intn(1+d%100))
		for i := range docs[d] {
			f := rng.Float64()
			docs[d][i] = uint32(f * f * 300)
		}
	}
	foreign := make([][]uint32, len(docs))
	copy(foreign, docs)
	for _, d := range []int{497, 261, 262} {
		foreign[d] = append(slices.Clone(docs[d]), 300+uint32(d))
	}

	var want *Index
	var wantErr string
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		idx, err := BuildFrom(IDs(docs), vocab)
		if err != nil {
			t.Fatal(err)
		}
		_, err = BuildFrom(IDs(foreign), vocab)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: foreign term ids accepted", procs)
		}
		if want == nil {
			want, wantErr = idx, err.Error()
			if wantErr != "bm25: document 261 holds term id 561 outside the vocabulary [0,300)" {
				t.Fatalf("GOMAXPROCS=1: error %q does not name document 261", wantErr)
			}
			continue
		}
		if err.Error() != wantErr {
			t.Errorf("GOMAXPROCS=%d: error %q, GOMAXPROCS=1 %q", procs, err, wantErr)
		}
		if !slices.Equal(idx.posts, want.posts) || !slices.Equal(idx.docLen, want.docLen) {
			t.Errorf("GOMAXPROCS=%d: postings or document lengths differ from GOMAXPROCS=1", procs)
		}
		for tid := range want.terms {
			g, w := idx.terms[tid], want.terms[tid]
			if g.off != w.off || g.df != w.df || math.Float64bits(g.idf) != math.Float64bits(w.idf) {
				t.Fatalf("GOMAXPROCS=%d: term %d = %+v, GOMAXPROCS=1 %+v", procs, tid, g, w)
			}
		}
		if math.Float64bits(idx.avgLen) != math.Float64bits(want.avgLen) {
			t.Errorf("GOMAXPROCS=%d: avgLen %v, GOMAXPROCS=1 %v", procs, idx.avgLen, want.avgLen)
		}
	}
}

// walkCounter is a streamed collection that counts the walks of each
// document: document d is docs[d] in id lists of at most width ids.
type walkCounter struct {
	lists
	walks []atomic.Int32
}

func (c *walkCounter) Walk(d int, part func(ids []uint32)) {
	c.walks[d].Add(1)
	c.lists.Walk(d, part)
}

// sameAsRef holds idx to the map-based reference over the same documents
// spelled in vocab: every term's postings, each document's length, the
// average length's bits, and TopK's hits and score bits for queries of
// the collection's own terms.
func sameAsRef(idx *Index, ref *refIndex, vocab *textutil.Vocab, queries [][]string) error {
	for tid, word := range vocab.Words() {
		plist, _ := idx.postings(uint32(tid))
		if want := ref.postings[word]; !slices.Equal(plist, want) {
			return fmt.Errorf("term %q: postings %v, want %v", word, plist, want)
		}
	}
	for d, dl := range ref.docLen {
		if idx.DocLen(d) != dl {
			return fmt.Errorf("document %d: length %d, want %d", d, idx.DocLen(d), dl)
		}
	}
	if math.Float64bits(idx.avgLen) != math.Float64bits(ref.avgLen) {
		return fmt.Errorf("avgLen %v, want %v", idx.avgLen, ref.avgLen)
	}
	sc := new(Scratch)
	for _, q := range queries {
		if err := sameHits(idx.TopK(sc, q, 5), ref.topK(q, 5)); err != nil {
			return fmt.Errorf("TopK(%v): %v", q, err)
		}
	}
	return nil
}

// TestBuildWalksEachDocumentOnce streams a collection through a source
// that counts walks per document, at widths 1, 2, 3 and 7: the build
// must walk every document exactly once — each range gathers its
// postings as it counts and scatters them without a second walk — and
// the index must equal the map-based reference's.
func TestBuildWalksEachDocumentOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(29))
	const nTerms = 80
	vocab := textutil.NewVocab()
	for i := range nTerms {
		vocab.Add(fmt.Sprintf("w%d", i))
	}
	docs := make([][]string, 300)
	ids := make([][]uint32, len(docs))
	for d := range docs {
		if rng.Intn(7) == 0 {
			continue // empty document
		}
		for range 1 + rng.Intn(1+d%40) {
			f := rng.Float64()
			id := int(f * f * nTerms) // skewed: repeats inside documents
			docs[d] = append(docs[d], vocab.Words()[id])
			ids[d] = append(ids[d], uint32(id))
		}
	}
	ref := buildRef(docs)
	queries := [][]string{{"w0"}, {"w1", "w5", "w1"}, {"w79", "w3"}, {"w2", "w40", "w11", "w0"}}
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		src := &walkCounter{lists: lists{ids, 3}, walks: make([]atomic.Int32, len(ids))}
		idx, err := BuildFrom(src, vocab)
		if err != nil {
			t.Fatal(err)
		}
		for d := range src.walks {
			if n := src.walks[d].Load(); n != 1 {
				t.Fatalf("GOMAXPROCS=%d: document %d walked %d times, want once", procs, d, n)
			}
		}
		if err := sameAsRef(idx, ref, vocab, queries); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
	}
}

// TestBuilderReuseMatchesFresh runs one Builder, rebuilding into the
// index it built before, over collections whose document count,
// vocabulary and GOMAXPROCS width first grow and then shrink. Each index must equal
// a fresh BuildFrom's bit for bit — term records with idf bits,
// postings, lengths, average length, TopK scores — and so must the
// reference's: the first document repeats a term across its id lists. A
// collection with foreign term ids must report the lowest offending
// document, and the builder must build the next collection as if fresh.
func TestBuilderReuseMatchesFresh(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(31))
	steps := []struct{ docs, terms, procs int }{
		{4, 6, 1}, {40, 50, 2}, {300, 400, 3}, {700, 900, 7}, {120, 150, 3}, {25, 30, 2}, {6, 8, 1}, {200, 260, 7},
	}
	var bl Builder
	var prev *Index
	for i, st := range steps {
		runtime.GOMAXPROCS(st.procs)
		vocab := textutil.NewVocab()
		for id := range st.terms {
			vocab.Add(fmt.Sprintf("w%d", id))
		}
		docs := make([][]string, st.docs)
		ids := make([][]uint32, st.docs)
		for d := range docs {
			n := rng.Intn(1 + d%50)
			if d == 0 {
				n = 0
				ids[0] = []uint32{2, 2, 1, 2, 3, 2} // lists [2 2] [1 2] [3 2]
				for _, id := range ids[0] {
					docs[0] = append(docs[0], vocab.Words()[id])
				}
			}
			for range n {
				f := rng.Float64()
				id := int(f * f * float64(st.terms))
				docs[d] = append(docs[d], vocab.Words()[id])
				ids[d] = append(ids[d], uint32(id))
			}
		}
		if i == 4 {
			// Foreign ids in three documents; the build fails and leaves the
			// builder to the next step.
			foreign := slices.Clone(ids)
			for _, d := range []int{97, 41, 42} {
				foreign[d] = append(slices.Clone(ids[d]), uint32(st.terms+d))
			}
			_, err := bl.Rebuild(prev, lists{foreign, 2}, vocab)
			want := fmt.Sprintf("bm25: document 41 holds term id %d outside the vocabulary [0,%d)", st.terms+41, st.terms)
			if err == nil || err.Error() != want {
				t.Fatalf("step %d: error %v, want %q", i, err, want)
			}
			prev = nil // Rebuild's contract: old is not used afterwards
		}
		got, err := bl.Rebuild(prev, lists{ids, 2}, vocab)
		if err != nil {
			t.Fatal(err)
		}
		prev = got
		fresh, err := BuildFrom(IDs(ids), vocab)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.terms) != len(fresh.terms) {
			t.Fatalf("step %d: %d term records, fresh %d", i, len(got.terms), len(fresh.terms))
		}
		for tid := range fresh.terms {
			g, w := got.terms[tid], fresh.terms[tid]
			if g.off != w.off || g.df != w.df || math.Float64bits(g.idf) != math.Float64bits(w.idf) {
				t.Fatalf("step %d: term %d = %+v, fresh %+v", i, tid, g, w)
			}
		}
		if !slices.Equal(got.posts, fresh.posts) || !slices.Equal(got.docLen, fresh.docLen) ||
			math.Float64bits(got.avgLen) != math.Float64bits(fresh.avgLen) || got.tokens != fresh.tokens {
			t.Fatalf("step %d: postings, lengths or average length differ from a fresh build", i)
		}
		queries := [][]string{{"w2"}, {"w2", "w1", "w2"}, {"w0", "w3"}, {"w5", "w4", "w1"}}
		if err := sameAsRef(got, buildRef(docs), vocab, queries); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}
