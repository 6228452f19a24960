// Package entitygraph builds the item entity graph of paper §2.1.
//
// Items with near-equivalent attribute labels and price are grouped into
// *item entities* (the graph's vertices). Edges carry the blended
// similarity of Eq. 3: S = α·Sq + (1−α)·Sc, where Sq is the Jaccard
// similarity of the entities' query sets (Eq. 1) and Sc is the
// content-driven similarity of their title word embeddings (Eq. 2).
// Low-similarity edges are filtered out, which is exactly why downstream
// HAC must cope with a sparse similarity matrix (the paper's Challenge 1).
package entitygraph

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"shoal/internal/model"
	"shoal/internal/obs"
	"shoal/internal/word2vec"
)

// Entity is one vertex of the item entity graph: a group of items with the
// same category, attribute labels and price band.
type Entity struct {
	ID    model.EntityID
	Items []model.ItemID
	// Category is the (shared) leaf category of the member items.
	Category model.CategoryID
	// Scenario is the majority ground-truth label of members, or
	// model.NoScenario when unknown. Used only by evaluation.
	Scenario model.ScenarioID
	// Tokens is the multiset of title tokens across member items.
	Tokens []string
}

// Size returns the number of member items (the n_A of Eq. 4).
func (e *Entity) Size() int { return len(e.Items) }

// EntitySet is the result of entity formation: entities plus the
// item-to-entity mapping. It is immutable once a graph build has seen it
// and is handled by pointer: it carries the cache below. Build it with
// BuildEntities, whose text plane the mean vectors read.
type EntitySet struct {
	Entities []Entity
	// ItemEntity maps every item id to its entity id.
	ItemEntity []model.EntityID

	// text is the corpus text plane BuildEntities read Tokens from: the
	// mean vectors walk its title ids instead of Tokens' strings.
	text *model.TextPlane

	// The per-entity mean vectors under the embedding model last built
	// with, and their norms (see meanVectors). They depend on the
	// entities' tokens and the model alone, so they live here rather than
	// in an IncState a dense fallback drops. Unexported, so a gob-encoded
	// set does not carry them.
	meansMu  sync.Mutex
	meansFor *word2vec.Model
	means    [][]float32
	norms    []float64
}

// meanVectors returns every entity's mean normalized word vector under emb
// (Eq. 2 factored form; nil for an entity with no token in vocabulary, all
// nil for a nil model) and its Euclidean norm (0 beside a nil vector),
// computed on first use per model — under a "means" child span of parent
// — and shared read-only by every later full build and patch over this
// set.
func (es *EntitySet) meanVectors(emb *word2vec.Model, parent *obs.Span) ([][]float32, []float64) {
	es.meansMu.Lock()
	defer es.meansMu.Unlock()
	if es.means == nil || es.meansFor != emb {
		means, norms := make([][]float32, len(es.Entities)), make([]float64, len(es.Entities))
		if emb != nil {
			sp := parent.Child("means")
			sp.SetAttr("entities", len(es.Entities))
			es.fillMeans(emb, means)
			for e := range means {
				norms[e] = math.Sqrt(dot(means[e], means[e]))
			}
			sp.End()
		}
		es.means, es.norms, es.meansFor = means, norms, emb
	}
	return es.means, es.norms
}

// fillMeans sets means[e] to the mean of the L2-normalized embeddings of
// entity e's known tokens, or leaves it nil if no token is known. The
// tokens are read as term ids from the text plane: the titles of the
// entity's items in item order, the multiset and order Tokens holds.
// Each word's normalized row is computed once, in float64, and a word of
// zero norm counts as unknown; every mean adds its rows in token order.
func (es *EntitySet) fillMeans(emb *word2vec.Model, means [][]float32) {
	words := es.text.Vocab().Words()
	dim := emb.Dim()
	row := make([]int32, len(words)) // term id → its row in unit; −1: unknown or zero norm
	var unit []float64
	for id, w := range words {
		row[id] = -1
		v, ok := emb.Vector(w)
		if !ok {
			continue
		}
		var norm float64
		for _, x := range v {
			norm += float64(float64(x) * float64(x))
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		row[id] = int32(len(unit) / dim)
		for _, x := range v {
			unit = append(unit, float64(x)/norm)
		}
	}
	acc := make([]float64, dim)
	for e := range es.Entities {
		clear(acc)
		known := 0
		for _, it := range es.Entities[e].Items {
			for _, id := range es.text.Title(it) {
				r := int(row[id])
				if r < 0 {
					continue
				}
				for i, x := range unit[r*dim : (r+1)*dim] {
					acc[i] += x
				}
				known++
			}
		}
		if known == 0 {
			continue
		}
		m := make([]float32, dim)
		for i, x := range acc {
			m[i] = float32(x / float64(known))
		}
		means[e] = m
	}
}

// priceBandWidth controls "near-equivalent price": prices within the same
// multiplicative band of width 2x group together (band = floor(log2(price
// in dollars))). Quantization necessarily splits some near pairs at band
// boundaries; a 2x width keeps that rare.
const priceBandWidth = 2.0

func priceBand(cents int64) int {
	if cents < 100 {
		return 0
	}
	band := 1
	v := float64(cents)
	for v >= priceBandWidth*100 {
		v /= priceBandWidth
		band++
	}
	return band
}

// BuildEntities groups corpus items into entities by (category, sorted
// attribute labels, price band). Singleton groups are normal: entity
// formation is a dedup step, not clustering. Entity ids follow each
// group's first item: items are visited in ascending id, so a group is
// numbered at its smallest item and lists its items ascending, with no
// sort. Cancellation is checked between grouping passes.
func BuildEntities(ctx context.Context, c *model.Corpus) (*EntitySet, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("entitygraph: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type key struct {
		cat   model.CategoryID
		attrs string
		band  int
	}
	ids := make(map[key]model.EntityID)
	es := &EntitySet{ItemEntity: make([]model.EntityID, len(c.Items))}
	for i := range c.Items {
		it := &c.Items[i]
		attrs := append([]string(nil), it.Attrs...)
		sort.Strings(attrs)
		k := key{cat: it.Category, attrs: strings.Join(attrs, "\x1f"), band: priceBand(it.PriceCents)}
		id, ok := ids[k]
		if !ok {
			id = model.EntityID(len(es.Entities))
			ids[k] = id
			es.Entities = append(es.Entities, Entity{ID: id, Category: k.cat})
		}
		es.Entities[id].Items = append(es.Entities[id].Items, it.ID)
		es.ItemEntity[it.ID] = id
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	text := c.Text()
	es.text = text
	for e := range es.Entities {
		ent := &es.Entities[e]
		scen := make(map[model.ScenarioID]int)
		for _, it := range ent.Items {
			ent.Tokens = text.AppendTerms(ent.Tokens, text.Title(it))
			scen[c.Items[it].Scenario]++
		}
		ent.Scenario = majorityScenario(scen)
	}
	return es, nil
}

func majorityScenario(counts map[model.ScenarioID]int) model.ScenarioID {
	best, bestN := model.NoScenario, 0
	ids := make([]model.ScenarioID, 0, len(counts))
	for s := range counts {
		ids = append(ids, s)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, s := range ids {
		if s == model.NoScenario {
			continue
		}
		if counts[s] > bestN {
			best, bestN = s, counts[s]
		}
	}
	return best
}
