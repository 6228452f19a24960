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
	"sort"
	"strings"
	"sync"

	"shoal/internal/model"
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
// and is handled by pointer: it carries the cache below.
type EntitySet struct {
	Entities []Entity
	// ItemEntity maps every item id to its entity id.
	ItemEntity []model.EntityID

	// The per-entity mean vectors under the embedding model last built
	// with (see meanVectors). They depend on the entities' tokens and the
	// model alone, so they live here rather than in an IncState a dense
	// fallback drops. Unexported, so a gob-encoded set does not carry them.
	meansMu  sync.Mutex
	meansFor *word2vec.Model
	means    [][]float32
}

// meanVectors returns every entity's mean normalized word vector under emb
// (Eq. 2 factored form; nil for an entity with no token in vocabulary, all
// nil for a nil model), computed on first use per model and shared
// read-only by every later full build and patch over this set.
func (es *EntitySet) meanVectors(emb *word2vec.Model) [][]float32 {
	es.meansMu.Lock()
	defer es.meansMu.Unlock()
	if es.means == nil || es.meansFor != emb {
		means := make([][]float32, len(es.Entities))
		if emb != nil {
			for e := range es.Entities {
				means[e] = meanNormVector(emb, es.Entities[e].Tokens)
			}
		}
		es.means, es.meansFor = means, emb
	}
	return es.means
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
// formation is a dedup step, not clustering. Cancellation is checked
// between grouping passes.
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
	groups := make(map[key][]model.ItemID)
	for i := range c.Items {
		it := &c.Items[i]
		attrs := append([]string(nil), it.Attrs...)
		sort.Strings(attrs)
		k := key{cat: it.Category, attrs: strings.Join(attrs, "\x1f"), band: priceBand(it.PriceCents)}
		groups[k] = append(groups[k], it.ID)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Deterministic entity ids: sort groups by their smallest item id.
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return groups[keys[a]][0] < groups[keys[b]][0] })

	text := c.Text()
	es := &EntitySet{ItemEntity: make([]model.EntityID, len(c.Items))}
	for _, k := range keys {
		items := groups[k]
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		id := model.EntityID(len(es.Entities))
		ent := Entity{ID: id, Items: items, Category: k.cat}
		scen := make(map[model.ScenarioID]int)
		for _, it := range items {
			es.ItemEntity[it] = id
			ent.Tokens = text.AppendTerms(ent.Tokens, text.Title(it))
			scen[c.Items[it].Scenario]++
		}
		ent.Scenario = majorityScenario(scen)
		es.Entities = append(es.Entities, ent)
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
