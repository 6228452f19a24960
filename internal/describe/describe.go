// Package describe implements topic description matching (paper §2.3).
//
// A topic is tagged with its most representative queries. The
// representativeness of query q for topic t_k combines two factors:
//
//	pop(q, t_k) = (log tf(q, I_k) + 1) / log tf(I_k)      (popularity)
//	con(q, t_k) = exp(rel(q, D_k)) / (1 + Σ_j exp(rel(q, D_j)))
//	r(q, t_k)   = sqrt(pop · con)
//
// where tf(q, I_k) counts occurrences of q with topic k's items, tf(I_k)
// is the total token mass of the topic, D_k is the pseudo document
// concatenating the topic's item titles, and rel is BM25 relevance. The
// denominator of con sums over every topic: topics whose pseudo document
// shares no term with q have rel = 0 and contribute exp(0) = 1 each, which
// is added in closed form rather than scored individually.
//
// Evaluation order follows what each factor depends on. rel(q, ·) and the
// denominator of con depend on q alone, and a query is a candidate of
// every topic on the ancestor chain of the items it clicks (12-15 topics
// on generated traffic), so scoring is query-major: one BM25 pass and one
// denominator fold per distinct candidate query, con scattered to the
// (topic, query) slots it belongs to, then a topic-major pass that only
// computes pop, r and the ranking. The fold runs over hits in ascending
// topic order whichever topic asks, so the result is bit-identical to
// scoring each (topic, candidate) pair on its own; extra memory is one
// float per candidate pair, never a per-query hit vector. Titles and
// query texts are read as term ids from the corpus text plane
// (model.Corpus.Text) and indexed with bm25.BuildIDs: nothing is
// tokenized per call.
package describe

import (
	"context"
	"fmt"
	"math"
	"slices"

	"shoal/internal/bipartite"
	"shoal/internal/bm25"
	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/taxonomy"
)

// Config controls description matching.
type Config struct {
	// TopQueries is the number of representative queries kept per topic.
	TopQueries int
	// BM25 parameterizes the relevance function.
	BM25 bm25.Config
}

// DefaultConfig keeps the 5 best queries per topic.
func DefaultConfig() Config {
	return Config{TopQueries: 5, BM25: bm25.DefaultConfig()}
}

// Description is the ranked query list for one topic.
type Description struct {
	Topic model.TopicID
	// Queries are representative query texts, best first.
	Queries []string
	// Scores are the r(q, t_k) values aligned with Queries.
	Scores []float64
}

// Describe computes representative queries for every topic in tx and
// writes them into the taxonomy (Topic.Description / Topic.DescQueries).
// It returns the full ranked descriptions. Cancellation is checked
// between per-query scoring passes. Under a traced context each phase
// below is a child span of the caller's.
func Describe(ctx context.Context, tx *taxonomy.Taxonomy, corpus *model.Corpus, clicks *bipartite.Graph, cfg Config) ([]Description, error) {
	if cfg.TopQueries <= 0 {
		return nil, fmt.Errorf("describe: TopQueries must be positive, got %d", cfg.TopQueries)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(tx.Topics) == 0 {
		return nil, nil
	}
	parent := obs.SpanFromContext(ctx)
	text := corpus.Text()

	sp := parent.Child("docs")
	docs, tokens := pseudoDocs(tx, text)
	sp.SetAttr("tokens", tokens)
	sp.End()

	sp = parent.Child("index")
	idx, err := bm25.BuildIDs(docs, text.Vocab(), cfg.BM25)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("describe: %w", err)
	}

	sp = parent.Child("candidates")
	cands := collectCandidates(tx, clicks, len(corpus.Queries))
	sp.End()

	sp = parent.Child("score")
	con, distinct, err := cands.concentration(ctx, idx, text)
	sp.SetAttr("distinctQueries", distinct)
	sp.SetAttr("candidatePairs", len(cands.query))
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = parent.Child("rank")
	defer sp.End()
	return cands.rank(tx, corpus, docs, con, cfg.TopQueries), nil
}

// pseudoDocs returns D_k per topic — the concatenated titles of its
// items, as term ids — carved out of one array, and their total length.
func pseudoDocs(tx *taxonomy.Taxonomy, text *model.TextPlane) (docs [][]uint32, total int) {
	for t := range tx.Topics {
		for _, it := range tx.Topics[t].Items {
			total += len(text.Title(it))
		}
	}
	flat := make([]uint32, 0, total)
	docs = make([][]uint32, len(tx.Topics))
	for t := range tx.Topics {
		from := len(flat)
		for _, it := range tx.Topics[t].Items {
			flat = append(flat, text.Title(it)...)
		}
		docs[t] = flat[from:len(flat):len(flat)]
	}
	return docs, total
}

// candidates is the sparse topic × query candidate matrix, one slot per
// (topic, query) pair with tf(q, I_t) > 0, readable in both orders.
type candidates struct {
	// Topic t owns the slots topicOff[t]:topicOff[t+1], ascending by
	// query. Per slot: its query, its tf(q, I_t) — the click-weighted
	// occurrences of the query with the topic's items — and its topic.
	topicOff []int32
	query    []model.QueryID
	tf       []float64
	topic    []int32
	// The transpose: query q is a candidate in the slots
	// slots[queryOff[q]:queryOff[q+1]], ascending by topic.
	queryOff []int32
	slots    []int32
}

// collectCandidates scans each topic's items once, accumulating click
// mass densely over the nq query ids.
func collectCandidates(tx *taxonomy.Taxonomy, clicks *bipartite.Graph, nq int) *candidates {
	k := len(tx.Topics)
	c := &candidates{topicOff: make([]int32, k+1), queryOff: make([]int32, nq+1)}
	acc := make([]float64, nq)
	mark := make([]bool, nq)
	var touched []model.QueryID
	for t := range tx.Topics {
		touched = touched[:0]
		for _, it := range tx.Topics[t].Items {
			for q, n := range clicks.ItemClicks(it) {
				if !mark[q] {
					mark[q] = true
					touched = append(touched, q)
				}
				acc[q] += float64(n)
			}
		}
		slices.Sort(touched)
		for _, q := range touched {
			c.query = append(c.query, q)
			c.tf = append(c.tf, acc[q])
			acc[q], mark[q] = 0, false
			c.queryOff[q+1]++
		}
		c.topicOff[t+1] = int32(len(c.query))
	}

	// Transpose by counting: slots are numbered in topic order and placed
	// in slot order, so each query's list comes out ascending by topic.
	for q := 0; q < nq; q++ {
		c.queryOff[q+1] += c.queryOff[q]
	}
	c.slots = make([]int32, len(c.query))
	c.topic = make([]int32, len(c.query))
	next := slices.Clone(c.queryOff[:nq])
	for t := 0; t < k; t++ {
		for s := c.topicOff[t]; s < c.topicOff[t+1]; s++ {
			q := c.query[s]
			c.slots[next[q]] = s
			next[q]++
			c.topic[s] = int32(t)
		}
	}
	return c
}

// concentration returns con(q, t) per slot and the number of distinct
// candidate queries, with one scoring pass per distinct query: softmax
// of BM25 over the touched topics, the untouched mass added in closed
// form. ScoreAll returns hits in ascending topic order, which fixes the
// denominator's summation order (float addition is not associative) no
// matter which topic the value is for; the query's candidate topics
// ascend too, so one merge walk reads rel(q, D_t) for each of them out
// of the same pass. Only con per slot is kept — never a hit vector.
func (c *candidates) concentration(ctx context.Context, idx *bm25.Index, text *model.TextPlane) (con []float64, distinct int, err error) {
	k := len(c.topicOff) - 1
	scorer := idx.NewScorer()
	defer scorer.Close()
	con = make([]float64, len(c.query))
	var toks []string
	for q := 0; q+1 < len(c.queryOff); q++ {
		slots := c.slots[c.queryOff[q]:c.queryOff[q+1]]
		if len(slots) == 0 {
			continue
		}
		if distinct%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		distinct++
		toks = text.AppendTerms(toks[:0], text.Query(model.QueryID(q)))
		rels := scorer.ScoreAll(toks)
		// con[s] first holds the numerator exp(rel(q, D_t)): exp(0) = 1
		// unless the walk finds the slot's topic among the hits.
		for _, s := range slots {
			con[s] = 1
		}
		var den float64 = 1 // the "+1" of the formula
		i := 0
		for _, h := range rels {
			e := math.Exp(h.Score)
			den += e
			for i < len(slots) && int(c.topic[slots[i]]) < h.Doc {
				i++
			}
			if i < len(slots) && int(c.topic[slots[i]]) == h.Doc {
				con[slots[i]] = e
			}
		}
		den += float64(k - len(rels)) // exp(0) per untouched topic
		for _, s := range slots {
			con[s] /= den
		}
	}
	return con, distinct, nil
}

// rank computes r = sqrt(pop·con) per slot, keeps each topic's best
// topQueries by (r descending, text ascending) and writes them into the
// taxonomy. Every topic's lists are carved out of two shared arrays.
func (c *candidates) rank(tx *taxonomy.Taxonomy, corpus *model.Corpus, docs [][]uint32, con []float64, topQueries int) []Description {
	kept := 0
	for t := range tx.Topics {
		kept += min(topQueries, int(c.topicOff[t+1]-c.topicOff[t]))
	}
	allQueries := make([]string, 0, kept)
	allScores := make([]float64, 0, kept)
	type ranked struct {
		text string
		r    float64
	}
	var best []ranked
	out := make([]Description, len(tx.Topics))
	for t := range tx.Topics {
		out[t].Topic = tx.Topics[t].ID
		if c.topicOff[t] == c.topicOff[t+1] {
			continue
		}
		logMass := 0.0 // log tf(I_k): the topic's token mass
		if len(docs[t]) > 1 {
			logMass = math.Log(float64(len(docs[t])))
		}
		best = best[:0]
		for s := c.topicOff[t]; s < c.topicOff[t+1]; s++ {
			pop := 0.0
			if len(docs[t]) > 1 {
				pop = (math.Log(c.tf[s]) + 1) / logMass
			}
			if pop > 1 {
				pop = 1
			}
			cand := ranked{text: corpus.Queries[c.query[s]].Text, r: math.Sqrt(pop * con[s])}
			// Ordered insertion into the best-so-far prefix.
			i := len(best)
			for i > 0 && (best[i-1].r < cand.r || (best[i-1].r == cand.r && best[i-1].text > cand.text)) {
				i--
			}
			if i == topQueries {
				continue
			}
			if len(best) < topQueries {
				best = append(best, ranked{})
			}
			copy(best[i+1:], best[i:])
			best[i] = cand
		}
		from := len(allQueries)
		for _, b := range best {
			allQueries = append(allQueries, b.text)
			allScores = append(allScores, b.r)
		}
		to := len(allQueries)
		out[t].Queries = allQueries[from:to:to]
		out[t].Scores = allScores[from:to:to]

		tx.Topics[t].DescQueries = out[t].Queries
		tx.Topics[t].Description = out[t].Queries[0]
	}
	return out
}
