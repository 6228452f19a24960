package bm25

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"shoal/internal/textutil"
)

// refIndex is the reference the CSR index is held bit-identical to: a
// posting slice per term string, built through a per-document tf map
// with the terms of each document visited in sorted order.
type refIndex struct {
	cfg      Config
	postings map[string][]posting
	docLen   []int
	avgLen   float64
	n        int
}

func buildRef(docs [][]string, cfg Config) *refIndex {
	r := &refIndex{cfg: cfg, postings: make(map[string][]posting), docLen: make([]int, len(docs)), n: len(docs)}
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
	denom := tf + r.cfg.K1*(1-r.cfg.B+r.cfg.B*dl/r.avgLen)
	return idf * tf * (r.cfg.K1 + 1) / denom
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

// TestIndexMatchesReference holds Build and BuildIDs bit-identical to the
// map-based reference on random collections: skewed term frequencies,
// empty documents, repeated terms inside documents and queries, and
// out-of-vocabulary query terms.
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
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
		cfg := Config{K1: 0.5 + 1.5*rng.Float64(), B: rng.Float64()}
		ref := buildRef(docs, cfg)

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
		fromStrings, err := Build(docs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fromIDs, err := BuildIDs(idDocs, vocab, cfg)
		if err != nil {
			t.Fatal(err)
		}

		for name, idx := range map[string]*Index{"Build": fromStrings, "BuildIDs": fromIDs} {
			sc := idx.NewScorer()
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
				want := ref.scoreAll(query)
				if err := sameHits(idx.ScoreAll(query), want); err != nil {
					t.Fatalf("trial %d %s ScoreAll(%v): %v", trial, name, query, err)
				}
				if err := sameHits(sc.ScoreAll(query), want); err != nil {
					t.Fatalf("trial %d %s Scorer.ScoreAll(%v): %v", trial, name, query, err)
				}
				k := 1 + rng.Intn(8)
				if err := sameHits(idx.TopK(query, k), ref.topK(query, k)); err != nil {
					t.Fatalf("trial %d %s TopK(%v, %d): %v", trial, name, query, k, err)
				}
				// The id form: known terms with their repeats, appended
				// behind a prefix it must keep.
				var ids []uint32
				for _, tok := range query {
					if id, ok := idx.Vocab().ID(tok); ok {
						ids = append(ids, uint32(id))
					}
				}
				if err := sameHits(sc.ScoreIDs(ids), want); err != nil {
					t.Fatalf("trial %d %s Scorer.ScoreIDs(%v): %v", trial, name, ids, err)
				}
				got := idx.AppendTopK([]Hit{{Doc: -1}}, ids, k)
				if got[0].Doc != -1 {
					t.Fatalf("trial %d %s AppendTopK overwrote its prefix: %v", trial, name, got)
				}
				if err := sameHits(got[1:], ref.topK(query, k)); err != nil {
					t.Fatalf("trial %d %s AppendTopK(%v, %d): %v", trial, name, ids, k, err)
				}
				byDoc := make(map[int]float64, len(want))
				for _, h := range want {
					byDoc[h.Doc] = h.Score
				}
				for d := range docs {
					got, err := idx.Score(query, d)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(byDoc[d]) {
						t.Fatalf("trial %d %s Score(%v, %d) = %x, want %x", trial, name, query, d,
							math.Float64bits(got), math.Float64bits(byDoc[d]))
					}
				}
			}
			sc.Close()
		}
	}
}

func TestBuildIDsRejectsForeignTermID(t *testing.T) {
	vocab := textutil.NewVocab()
	vocab.Add("a")
	if _, err := BuildIDs([][]uint32{{0, 1}}, vocab, DefaultConfig()); err == nil {
		t.Fatal("term id outside the vocabulary accepted")
	}
}

// TestBuildIDsIdenticalAcrossWidths holds BuildIDs, which splits its
// documents into GOMAXPROCS ranges, to the same index at every width:
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
		idx, err := BuildIDs(docs, vocab, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, err = BuildIDs(foreign, vocab, DefaultConfig())
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
