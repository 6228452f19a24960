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
// (model.Corpus.Text), streamed into BM25 postings with bm25.BuildFrom —
// D_k is never laid out as one array — and scored with
// bm25.Scorer.ScoreIDs: nothing is tokenized or hashed per call. rel is
// plain BM25 at its package's constant k1 and b; only the number of
// queries kept per topic is configured.
//
// Every loop over topics or queries — the index build over the pseudo
// documents, candidate collection (a count, then a fill at the offsets the
// counts give), scoring and ranking — is split by internal/par into
// GOMAXPROCS contiguous ranges of about equal cost. Each output slot has
// one writer and every float sum keeps its order, so the descriptions
// are the same bytes at every width; only the candidate transpose in
// between runs serially.
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
	"shoal/internal/par"
	"shoal/internal/reuse"
	"shoal/internal/taxonomy"
)

// Config controls description matching.
type Config struct {
	// TopQueries is the number of representative queries kept per topic.
	TopQueries int
}

// DefaultConfig keeps the 5 best queries per topic.
func DefaultConfig() Config {
	return Config{TopQueries: 5}
}

// Description is the ranked query list for one topic.
type Description struct {
	Topic model.TopicID
	// Queries are representative query texts, best first.
	Queries []string
	// QueryIDs are the corpus queries whose texts Queries holds, aligned
	// with Queries.
	QueryIDs []model.QueryID
	// Scores are the r(q, t_k) values aligned with Queries.
	Scores []float64
}

// Describe computes representative queries for every topic in tx and
// writes them into the taxonomy (Topic.Description / Topic.DescQueries).
// It returns the full ranked descriptions. Cancellation is checked
// between per-query scoring passes. Under a traced context each phase
// below is a child span of the caller's, with the number of ranges its
// loop split into as attribute workers. It is Workspace.Describe over a
// fresh workspace.
func Describe(ctx context.Context, tx *taxonomy.Taxonomy, corpus *model.Corpus, clicks *bipartite.Graph, cfg Config) ([]Description, error) {
	return new(Workspace).Describe(ctx, tx, corpus, clicks, cfg)
}

// Workspace keeps a Describe call's scratch — the BM25 index over D_k,
// the candidate matrix and its transpose, the ranges' stamp and
// accumulator arrays, con — for the next call to re-slice instead of
// allocating. The descriptions never alias it. The zero value is empty;
// one serves one call at a time.
type Workspace struct {
	idx  *bm25.Index
	c    candidates
	next []int32
	// stamps[w] is what topic range w carries from its candidate count
	// to its fill: stamp[q] is t+1 once topic t's count has seen query
	// q, and -(t+1) once its fill has. accs[w] is its fill's click mass
	// per query.
	stamps [][]int32
	accs   [][]float64
	con    []float64
}

// Describe is the package-level Describe in ws's arrays; the
// descriptions are the same whatever ws held before.
func (ws *Workspace) Describe(ctx context.Context, tx *taxonomy.Taxonomy, corpus *model.Corpus, clicks *bipartite.Graph, cfg Config) ([]Description, error) {
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
	d := &describer{ctx: ctx, ws: ws, topics: tx.Topics, corpus: corpus, text: text, clicks: clicks, top: cfg.TopQueries}
	k := len(tx.Topics)

	sp := parent.Child("index")
	sp.SetAttr("workers", par.Width(k))
	// The index dies with the call: the next call rebuilds in its arrays.
	idx, err := bm25.Rebuild(ws.idx, pseudoDocs{tx.Topics, text}, text.Vocab())
	ws.idx = idx
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("describe: %w", err)
	}
	sp.SetAttr("tokens", idx.Tokens())
	sp.End()
	d.idx = idx

	sp = parent.Child("candidates")
	sp.SetAttr("workers", par.Width(k))
	d.collectCandidates()
	sp.End()

	sp = parent.Child("score")
	sp.SetAttr("workers", par.Width(len(corpus.Queries)))
	distinct, err := d.concentration()
	sp.SetAttr("distinctQueries", distinct)
	sp.SetAttr("candidatePairs", len(d.c.query))
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = parent.Child("rank")
	sp.SetAttr("workers", par.Width(k))
	defer sp.End()
	return d.rank(), nil
}

// describer is one Describe call's state. Each loop below is split by
// par into contiguous ranges of topics or queries; a range writes only
// its own topics' or queries' slots, and every float sum keeps the
// serial order, so the output is the same bytes at every width.
type describer struct {
	ctx    context.Context
	ws     *Workspace
	topics []taxonomy.Topic
	corpus *model.Corpus
	text   *model.TextPlane
	clicks *bipartite.Graph
	top    int

	c candidates
	// idx indexes D_k; its document lengths are tf(I_k).
	idx      *bm25.Index
	con      []float64 // con(q, t) per candidate slot
	distinct []int     // per range of queries

	// kept[t]:kept[t+1] is where topic t's ranked lists go in queries,
	// ids and scores.
	kept    []int
	queries []string
	ids     []model.QueryID
	scores  []float64
	out     []Description
}

// byItems balances a topic loop by the topics' item counts.
func (d *describer) byItems(t int) int { return len(d.topics[t].Items) + 1 }

// pseudoDocs streams D_k, the concatenated titles of topic k's items
// in item order, into the BM25 build.
type pseudoDocs struct {
	topics []taxonomy.Topic
	text   *model.TextPlane
}

func (p pseudoDocs) Len() int       { return len(p.topics) }
func (p pseudoDocs) Cost(t int) int { return len(p.topics[t].Items) + 1 }

func (p pseudoDocs) Walk(t int, part func(ids []uint32)) {
	for _, it := range p.topics[t].Items {
		part(p.text.Title(it))
	}
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

// collectCandidates scans the click-window rows of each topic's items,
// in item order, accumulating click mass densely over the query ids:
// one pass counts each topic's distinct queries, the next fills its
// slots at the offsets the counts give. The transpose that follows is
// serial.
func (d *describer) collectCandidates() {
	k, nq, ws := len(d.topics), len(d.corpus.Queries), d.ws
	c := &d.c
	c.topicOff = reuse.Grow(ws.c.topicOff, k+1)
	c.topicOff[0] = 0
	bounds := par.Split(nil, k, d.byItems)
	ws.stamps = reuse.Grow(ws.stamps, len(bounds)-1)
	ws.accs = reuse.Grow(ws.accs, len(bounds)-1)
	_ = par.Run(bounds, d, (*describer).countCandidates) // neither pass fails
	for t := range k {
		c.topicOff[t+1] += c.topicOff[t]
	}
	n := int(c.topicOff[k])
	c.query, c.tf, c.topic = reuse.Grow(ws.c.query, n), reuse.Grow(ws.c.tf, n), reuse.Grow(ws.c.topic, n)
	_ = par.Run(bounds, d, (*describer).fillCandidates)

	// Transpose by counting: slots are numbered in topic order and placed
	// in slot order, so each query's list comes out ascending by topic.
	c.queryOff = reuse.Grow(ws.c.queryOff, nq+1)
	clear(c.queryOff)
	for _, q := range c.query {
		c.queryOff[q+1]++
	}
	for q := range nq {
		c.queryOff[q+1] += c.queryOff[q]
	}
	c.slots = reuse.Grow(ws.c.slots, n)
	next := append(ws.next[:0], c.queryOff[:nq]...)
	for s, q := range c.query {
		c.slots[next[q]] = int32(s)
		next[q]++
	}
	ws.c, ws.next = *c, next
}

// The range bodies below read describer fields into locals first: a
// store through a slice may alias a field read through a pointer, which
// the compiler would load again.

func (d *describer) countCandidates(w, lo, hi int) error {
	clicks, topicOff := d.clicks, d.c.topicOff
	stamp := reuse.Grow(d.ws.stamps[w], len(d.corpus.Queries))
	clear(stamp)
	for t := lo; t < hi; t++ {
		n := int32(0)
		for _, it := range d.topics[t].Items {
			qs, _ := clicks.Row(it)
			for _, q := range qs {
				if stamp[q] != int32(t)+1 {
					stamp[q] = int32(t) + 1
					n++
				}
			}
		}
		topicOff[t+1] = n
	}
	d.ws.stamps[w] = stamp
	return nil
}

func (d *describer) fillCandidates(w, lo, hi int) error {
	clicks, c := d.clicks, &d.c
	topicOff, query, tf, topic := c.topicOff, c.query, c.tf, c.topic
	stamp, acc := d.ws.stamps[w], reuse.Grow(d.ws.accs[w], len(d.corpus.Queries))
	clear(acc)
	d.ws.accs[w] = acc
	var touched []model.QueryID
	for t := lo; t < hi; t++ {
		touched = touched[:0]
		for _, it := range d.topics[t].Items {
			qs, ns := clicks.Row(it)
			for j, q := range qs {
				if stamp[q] != -int32(t)-1 {
					stamp[q] = -int32(t) - 1
					touched = append(touched, q)
				}
				acc[q] += float64(ns[j])
			}
		}
		slices.Sort(touched)
		s := topicOff[t]
		for _, q := range touched {
			query[s], tf[s], topic[s] = q, acc[q], int32(t)
			acc[q] = 0
			s++
		}
	}
	return nil
}

// concentration fills con(q, t) per slot and returns the number of
// distinct candidate queries, with one scoring pass per distinct query
// — softmax of BM25 over the touched topics, the untouched mass added in
// closed form — split into query ranges balanced by slot count, each
// with a bm25.Scorer of its own. ScoreIDs returns hits in ascending
// topic order, which fixes the denominator's summation order (float
// addition is not associative) no matter which topic the value is for;
// the query's candidate topics ascend too, so one merge walk reads
// rel(q, D_t) for each of them out of the same pass. Only con per slot
// is kept — never a hit vector.
func (d *describer) concentration() (distinct int, err error) {
	c := &d.c
	nq := len(c.queryOff) - 1
	bounds := par.Split(nil, nq, func(q int) int { return int(c.queryOff[q+1]-c.queryOff[q]) + 1 })
	d.con = reuse.Grow(d.ws.con, len(c.query))
	d.ws.con = d.con
	d.distinct = make([]int, len(bounds)-1)
	if err := par.Run(bounds, d, (*describer).scoreQueries); err != nil {
		return 0, err
	}
	for _, n := range d.distinct {
		distinct += n
	}
	return distinct, nil
}

func (d *describer) scoreQueries(w, lo, hi int) error {
	c, con, text := &d.c, d.con, d.text
	queryOff, slotsOf, topic := c.queryOff, c.slots, c.topic
	k := len(c.topicOff) - 1
	scorer := d.idx.NewScorer()
	defer scorer.Close()
	distinct := 0
	for q := lo; q < hi; q++ {
		slots := slotsOf[queryOff[q]:queryOff[q+1]]
		if len(slots) == 0 {
			continue
		}
		if distinct%64 == 0 {
			if err := d.ctx.Err(); err != nil {
				return err
			}
		}
		distinct++
		rels := scorer.ScoreIDs(text.Query(model.QueryID(q)))
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
			for i < len(slots) && int(topic[slots[i]]) < h.Doc {
				i++
			}
			if i < len(slots) && int(topic[slots[i]]) == h.Doc {
				con[slots[i]] = e
			}
		}
		den += float64(k - len(rels)) // exp(0) per untouched topic
		for _, s := range slots {
			con[s] /= den
		}
	}
	d.distinct[w] = distinct
	return nil
}

// rank computes r = sqrt(pop·con) per slot, keeps each topic's best
// TopQueries by (r descending, text ascending) and writes them into the
// taxonomy. Every topic's lists are carved out of three shared arrays at
// offsets fixed before the ranges run.
func (d *describer) rank() []Description {
	c, k := &d.c, len(d.topics)
	d.kept = make([]int, k+1)
	for t := range k {
		d.kept[t+1] = d.kept[t] + min(d.top, int(c.topicOff[t+1]-c.topicOff[t]))
	}
	n := d.kept[k]
	d.queries, d.ids, d.scores = make([]string, n), make([]model.QueryID, n), make([]float64, n)
	d.out = make([]Description, k)
	bounds := par.Split(nil, k, func(t int) int { return int(c.topicOff[t+1]-c.topicOff[t]) + 1 })
	_ = par.Run(bounds, d, (*describer).rankTopics) // ranking has no failure to report
	return d.out
}

func (d *describer) rankTopics(_, lo, hi int) error {
	c := &d.c
	type ranked struct {
		text string
		id   model.QueryID
		r    float64
	}
	var best []ranked
	for t := lo; t < hi; t++ {
		d.out[t].Topic = d.topics[t].ID
		if c.topicOff[t] == c.topicOff[t+1] {
			continue
		}
		mass := d.idx.DocLen(t) // tf(I_k): the topic's token mass
		logMass := 0.0
		if mass > 1 {
			logMass = math.Log(float64(mass))
		}
		best = best[:0]
		for s := c.topicOff[t]; s < c.topicOff[t+1]; s++ {
			pop := 0.0
			if mass > 1 {
				pop = (math.Log(c.tf[s]) + 1) / logMass
			}
			if pop > 1 {
				pop = 1
			}
			q := c.query[s]
			cand := ranked{text: d.corpus.Queries[q].Text, id: q, r: math.Sqrt(pop * d.con[s])}
			// Ordered insertion into the best-so-far prefix.
			i := len(best)
			for i > 0 && (best[i-1].r < cand.r || (best[i-1].r == cand.r && best[i-1].text > cand.text)) {
				i--
			}
			if i == d.top {
				continue
			}
			if len(best) < d.top {
				best = append(best, ranked{})
			}
			copy(best[i+1:], best[i:])
			best[i] = cand
		}
		from, to := d.kept[t], d.kept[t+1]
		for j, b := range best {
			d.queries[from+j], d.ids[from+j], d.scores[from+j] = b.text, b.id, b.r
		}
		d.out[t].Queries = d.queries[from:to:to]
		d.out[t].QueryIDs = d.ids[from:to:to]
		d.out[t].Scores = d.scores[from:to:to]

		d.topics[t].DescQueries = d.out[t].Queries
		d.topics[t].Description = d.out[t].Queries[0]
	}
	return nil
}
