package describe_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/bm25"
	"shoal/internal/core"
	"shoal/internal/describe"
	"shoal/internal/model"
	"shoal/internal/synth"
	"shoal/internal/taxonomy"
	"shoal/internal/textutil"
)

// describeOracle is the reference implementation Describe is held
// bit-identical to: topic-major (one scoring pass per (topic, candidate)
// pair), tokenizing every title and query text with textutil, a map and
// a sort per topic, a string-built BM25 index scored through one scratch
// with the tokens resolved in its own vocabulary.
func describeOracle(tx *taxonomy.Taxonomy, corpus *model.Corpus, clicks *bipartite.Graph, cfg describe.Config) ([]describe.Description, error) {
	k := len(tx.Topics)
	docs := make([][]string, k)
	totalTokens := make([]float64, k)
	for t := range tx.Topics {
		for _, it := range tx.Topics[t].Items {
			docs[t] = append(docs[t], textutil.Tokenize(corpus.Items[it].Title)...)
		}
		totalTokens[t] = float64(len(docs[t]))
	}
	idx, err := bm25.Build(docs)
	if err != nil {
		return nil, err
	}
	sc := new(bm25.Scratch)
	out := make([]describe.Description, 0, k)
	for t := range tx.Topics {
		acc := make(map[model.QueryID]float64)
		for _, it := range tx.Topics[t].Items {
			qs, ns := clicks.Row(it)
			for j, q := range qs {
				acc[q] += float64(ns[j])
			}
		}
		if len(acc) == 0 {
			out = append(out, describe.Description{Topic: tx.Topics[t].ID})
			continue
		}
		cands := make([]model.QueryID, 0, len(acc))
		for q := range acc {
			cands = append(cands, q)
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
		type scored struct {
			text string
			id   model.QueryID
			r    float64
		}
		ranked := make([]scored, 0, len(cands))
		for _, q := range cands {
			qText := corpus.Queries[q].Text
			pop := 0.0
			if totalTokens[t] > 1 {
				pop = (math.Log(acc[q]) + 1) / math.Log(totalTokens[t])
			}
			if pop > 1 {
				pop = 1
			}
			var terms []uint32
			for _, tok := range textutil.TokenizeFiltered(qText) {
				if id, ok := idx.Vocab().ID(tok); ok {
					terms = append(terms, uint32(id))
				}
			}
			rels := idx.ScoreIDs(sc, terms)
			relK := 0.0
			var den float64 = 1
			for _, h := range rels {
				if h.Doc == t {
					relK = h.Score
				}
				den += math.Exp(h.Score)
			}
			den += float64(k - len(rels))
			con := math.Exp(relK) / den
			ranked = append(ranked, scored{text: qText, id: q, r: math.Sqrt(pop * con)})
		}
		sort.Slice(ranked, func(a, b int) bool {
			if ranked[a].r != ranked[b].r {
				return ranked[a].r > ranked[b].r
			}
			if ranked[a].text != ranked[b].text {
				return ranked[a].text < ranked[b].text
			}
			return ranked[a].id < ranked[b].id
		})
		n := min(cfg.TopQueries, len(ranked))
		d := describe.Description{Topic: tx.Topics[t].ID}
		for i := 0; i < n; i++ {
			d.Queries = append(d.Queries, ranked[i].text)
			d.QueryIDs = append(d.QueryIDs, ranked[i].id)
			d.Scores = append(d.Scores, ranked[i].r)
		}
		out = append(out, d)
		tx.Topics[t].DescQueries = d.Queries
		tx.Topics[t].Description = d.Queries[0]
	}
	return out, nil
}

// undescribed returns a deep copy of tx with every description cleared.
func undescribed(t *testing.T, tx *taxonomy.Taxonomy) *taxonomy.Taxonomy {
	t.Helper()
	var buf bytes.Buffer
	if err := tx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := taxonomy.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cp.Topics {
		cp.Topics[i].Description, cp.Topics[i].DescQueries = "", nil
	}
	return cp
}

// TestDescribeMatchesOracle holds the query-major, text-plane Describe
// bit-identical to the reference on a generated corpus whose taxonomy is
// three levels deep, so most queries are candidates of several topics.
func TestDescribeMatchesOracle(t *testing.T) {
	gen := synth.DefaultConfig()
	gen.Scenarios = 8
	gen.ItemsPerScenario = 60
	gen.QueriesPerScenario = 15
	gen.NoiseItems = 30
	gen.HeadQueries = 6
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.TrainEmbeddings = false
	cfg.Graph.MinSimilarity = 0.25
	b, err := core.Run(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	depth := 0
	for i := range b.Taxonomy.Topics {
		depth = max(depth, b.Taxonomy.Topics[i].Level+1)
	}
	if depth < 3 {
		t.Fatalf("taxonomy is %d levels deep, want >= 3", depth)
	}

	for _, top := range []int{1, 5, 1000} {
		dcfg := describe.DefaultConfig()
		dcfg.TopQueries = top
		txWant, txGot := undescribed(t, b.Taxonomy), undescribed(t, b.Taxonomy)
		want, err := describeOracle(txWant, corpus, b.Clicks, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := describe.Describe(context.Background(), txGot, corpus, b.Clicks, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopQueries=%d: descriptions differ from the oracle", top)
		}
		described := 0
		for i := range want {
			for j := range want[i].Scores {
				if math.Float64bits(got[i].Scores[j]) != math.Float64bits(want[i].Scores[j]) {
					t.Fatalf("TopQueries=%d topic %d query %d: score bits %x, oracle %x", top, i, j,
						math.Float64bits(got[i].Scores[j]), math.Float64bits(want[i].Scores[j]))
				}
			}
			if len(want[i].Queries) > 0 {
				described++
			}
		}
		if described < len(want)/2 {
			t.Fatalf("only %d of %d topics described; the comparison is vacuous", described, len(want))
		}
		if !reflect.DeepEqual(txGot.Topics, txWant.Topics) {
			t.Fatalf("TopQueries=%d: DescQueries/Description written into the taxonomy differ from the oracle", top)
		}
	}
}
