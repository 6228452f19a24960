// Package taxonomy assembles the SHOAL hierarchical topic taxonomy from a
// clustering dendrogram and provides the navigation the demo GUI exposes
// (paper Fig. 5): query→topic search, topic→sub-topic descent, and
// topic→category→item exploration.
//
// Topics are obtained by cutting the Parallel HAC dendrogram at a ladder of
// similarity thresholds: the loosest cut yields the root topics (conceptual
// shopping scenarios such as "trip to the beach"), tighter cuts yield
// nested sub-topics. Because cuts of one dendrogram are nested refinements,
// the result is a proper tree.
package taxonomy

import (
	"context"
	"fmt"

	"shoal/internal/dendrogram"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
)

// NoTopic marks items/entities not placed under any topic (clusters below
// the minimum size).
const NoTopic model.TopicID = -1

// Topic is one node of the topic tree.
type Topic struct {
	ID     model.TopicID
	Parent model.TopicID // NoTopic for roots
	// Level is the depth: 0 for root topics.
	Level    int
	Children []model.TopicID
	// Entities are the member item entities, ascending.
	Entities []model.EntityID
	// Items are the member items, ascending.
	Items []model.ItemID
	// Categories are the distinct leaf categories of member items,
	// ascending — the category set Ck used by Eq. 5.
	Categories []model.CategoryID
	// Description is the most representative query (§2.3), set by the
	// description-matching stage.
	Description string
	// DescQueries are the top representative queries, best first.
	DescQueries []string
	// Sim is the dendrogram similarity at which this topic's cluster
	// was intact (the cut threshold of its level).
	Sim float64
}

// Taxonomy is the full topic tree plus item/entity placement.
type Taxonomy struct {
	Topics []Topic
	// EntityTopic maps each entity to its deepest topic, or NoTopic.
	EntityTopic []model.TopicID
	// ItemTopic maps each item to its deepest topic, or NoTopic.
	ItemTopic []model.TopicID
	// Levels are the cut thresholds, loosest first.
	Levels []float64
}

// Config controls taxonomy assembly.
type Config struct {
	// Levels are cut thresholds in ascending order. The first defines
	// root topics; each subsequent one adds a nesting level.
	Levels []float64
	// MinTopicSize is the minimum number of entities for a cluster to
	// become a topic; smaller clusters stay part of their parent (or are
	// unassigned at root level).
	MinTopicSize int
}

// DefaultConfig uses three levels above the default clustering threshold.
func DefaultConfig() Config {
	return Config{Levels: []float64{0.35, 0.5, 0.65}, MinTopicSize: 2}
}

func (c Config) validate() error {
	if len(c.Levels) == 0 {
		return fmt.Errorf("taxonomy: need at least one cut level")
	}
	prev := -1.0
	for _, l := range c.Levels {
		if l < 0 || l > 1 {
			return fmt.Errorf("taxonomy: level %f outside [0,1]", l)
		}
		if l <= prev {
			return fmt.Errorf("taxonomy: levels must be strictly ascending")
		}
		prev = l
	}
	if c.MinTopicSize < 1 {
		return fmt.Errorf("taxonomy: MinTopicSize must be >= 1")
	}
	return nil
}

// Build cuts the dendrogram at cfg.Levels and assembles the topic tree.
// Dendrogram leaves must be entity ids of es. Cancellation is checked
// between level cuts.
//
// Assembly counts instead of hashing and sorting, and every list is
// born in its final order: a level's groups are a counting sort of the
// cut's labels (entities visited ascending, so each group is ascending,
// and a label is its group's smallest entity, so ascending labels are
// the groups in first-member order); items are appended to the topics
// on their entity's parent chain in ascending item order; categories are
// appended in ascending category order, each only when it differs from
// the topic's last one. Each per-topic list is a span of one flat array
// sized by a counting pass, so the allocations are a fixed few per level
// plus a fixed few per build.
func Build(ctx context.Context, d *dendrogram.Dendrogram, es *entitygraph.EntitySet, corpus *model.Corpus, cfg Config) (*Taxonomy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.Leaves != len(es.Entities) {
		return nil, fmt.Errorf("taxonomy: dendrogram has %d leaves but entity set has %d", d.Leaves, len(es.Entities))
	}
	if len(es.ItemEntity) != len(corpus.Items) {
		return nil, fmt.Errorf("taxonomy: entity set places %d items but the corpus has %d", len(es.ItemEntity), len(corpus.Items))
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("taxonomy: %w", err)
	}
	n := len(es.Entities)
	for e := range es.Entities {
		if c := es.Entities[e].Category; c < 0 || int(c) >= len(corpus.Categories) {
			return nil, fmt.Errorf("taxonomy: entity %d has unknown category %d", e, c)
		}
	}

	tx := &Taxonomy{
		EntityTopic: make([]model.TopicID, n),
		ItemTopic:   make([]model.TopicID, len(corpus.Items)),
		Levels:      append([]float64(nil), cfg.Levels...),
	}
	// assign is each entity's deepest topic so far. A level's groups are
	// disjoint, so it is updated in place: a group reads its parent from
	// its first member before any of its own members are written.
	assign := tx.EntityTopic
	for i := range assign {
		assign[i] = NoTopic
	}

	// Topics are decided level by level into protos, then laid out once.
	type proto struct {
		entities     []model.EntityID
		parent       model.TopicID
		depth, level int32
	}
	// off[lab] is where label lab's group starts in a level's members;
	// next is the fill cursor. groups lays a level's labels out in off
	// and counts the groups large enough to become a topic.
	off := make([]int32, n+1)
	next := make([]int32, n)
	groups := func(labels []int32) (candidates int) {
		clear(off)
		for _, lab := range labels {
			off[lab+1]++
		}
		for lab := 1; lab <= n; lab++ {
			if int(off[lab]) >= cfg.MinTopicSize {
				candidates++
			}
			off[lab] += off[lab-1]
		}
		return candidates
	}
	// Every level is cut first, so protos is sized once for all of them.
	cuts := make([][]int32, len(cfg.Levels))
	candidates := 0
	for level, threshold := range cfg.Levels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cuts[level] = d.CutAt(threshold)
		candidates += groups(cuts[level])
	}
	protos := make([]proto, 0, candidates)
	for level, labels := range cuts {
		groups(labels)
		copy(next, off[:n])
		members := make([]model.EntityID, n)
		for e, lab := range labels {
			members[next[lab]] = model.EntityID(e)
			next[lab]++
		}
		for lab := 0; lab < n; lab++ {
			group := members[off[lab]:off[lab+1]:off[lab+1]]
			if len(group) < cfg.MinTopicSize {
				continue
			}
			// Parent topic: the previous level's topic of the first
			// member; nested cuts guarantee all members share it.
			p := proto{entities: group, parent: NoTopic, level: int32(level)}
			if level > 0 {
				p.parent = assign[group[0]]
				if p.parent == NoTopic {
					continue // parent cluster was too small: skip subtree
				}
				// Skip clusters identical to their parent: no new
				// information, avoids single-child chains.
				if len(protos[p.parent].entities) == len(group) {
					continue
				}
				p.depth = protos[p.parent].depth + 1
			}
			id := model.TopicID(len(protos))
			protos = append(protos, p)
			for _, e := range group {
				assign[e] = id
			}
		}
	}
	if len(protos) > 0 {
		tx.Topics = make([]Topic, len(protos))
	}
	counts := make([]int32, len(protos))
	for i, p := range protos {
		tx.Topics[i] = Topic{
			ID: model.TopicID(i), Parent: p.parent, Level: int(p.depth),
			Entities: p.entities, Sim: cfg.Levels[p.level],
		}
		if p.parent != NoTopic {
			counts[p.parent]++
		}
	}
	// Children, in ascending id order.
	carve(counts, func(t int, span []model.TopicID) { tx.Topics[t].Children = span })
	for i, p := range protos {
		if p.parent != NoTopic {
			pt := &tx.Topics[p.parent]
			pt.Children = append(pt.Children, model.TopicID(i))
		}
	}

	// Items: every item joins each topic on its entity's parent chain, in
	// ascending item order.
	clear(counts)
	for it, e := range es.ItemEntity {
		tid := assign[e]
		tx.ItemTopic[it] = tid
		for ; tid != NoTopic; tid = tx.Topics[tid].Parent {
			counts[tid]++
		}
	}
	carve(counts, func(t int, span []model.ItemID) { tx.Topics[t].Items = span })
	for it, tid := range tx.ItemTopic {
		for ; tid != NoTopic; tid = tx.Topics[tid].Parent {
			t := &tx.Topics[tid]
			t.Items = append(t.Items, model.ItemID(it))
		}
	}

	// Categories: entities counting-sorted by category, then walked in
	// that order; a topic takes a category only when it differs from the
	// last one it took. last[t] is 1 + the last category counted for t.
	catOff := make([]int32, len(corpus.Categories)+1)
	for e := range es.Entities {
		catOff[es.Entities[e].Category+1]++
	}
	for c := 1; c < len(catOff); c++ {
		catOff[c] += catOff[c-1]
	}
	byCat := make([]model.EntityID, n)
	for e := range es.Entities {
		c := es.Entities[e].Category
		byCat[catOff[c]] = model.EntityID(e)
		catOff[c]++
	}
	clear(counts)
	last := make([]int32, len(protos))
	for _, e := range byCat {
		c := int32(es.Entities[e].Category) + 1
		for tid := assign[e]; tid != NoTopic; tid = tx.Topics[tid].Parent {
			if last[tid] != c {
				last[tid] = c
				counts[tid]++
			}
		}
	}
	carve(counts, func(t int, span []model.CategoryID) { tx.Topics[t].Categories = span })
	for _, e := range byCat {
		c := es.Entities[e].Category
		for tid := assign[e]; tid != NoTopic; tid = tx.Topics[tid].Parent {
			t := &tx.Topics[tid]
			if k := len(t.Categories); k == 0 || t.Categories[k-1] != c {
				t.Categories = append(t.Categories, c)
			}
		}
	}
	return tx, nil
}

// carve cuts one array of sum(counts) elements into consecutive spans
// and hands span t to set with length 0 and capacity counts[t] (nil when
// counts[t] is 0), so appending exactly counts[t] elements fills it in
// place.
func carve[T any](counts []int32, set func(t int, span []T)) {
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	if total == 0 {
		return
	}
	flat := make([]T, total)
	pos := 0
	for t, c := range counts {
		if c > 0 {
			set(t, flat[pos:pos:pos+int(c)])
			pos += int(c)
		}
	}
}

// Roots returns the root topic ids, ascending.
func (tx *Taxonomy) Roots() []model.TopicID {
	var out []model.TopicID
	for i := range tx.Topics {
		if tx.Topics[i].Parent == NoTopic {
			out = append(out, tx.Topics[i].ID)
		}
	}
	return out
}

// Topic returns the topic with the given id, or an error.
func (tx *Taxonomy) Topic(id model.TopicID) (*Topic, error) {
	if id < 0 || int(id) >= len(tx.Topics) {
		return nil, fmt.Errorf("taxonomy: topic %d out of range [0,%d)", id, len(tx.Topics))
	}
	return &tx.Topics[id], nil
}

// RootOf returns the root ancestor of topic id.
func (tx *Taxonomy) RootOf(id model.TopicID) (model.TopicID, error) {
	t, err := tx.Topic(id)
	if err != nil {
		return NoTopic, err
	}
	for t.Parent != NoTopic {
		t = &tx.Topics[t.Parent]
	}
	return t.ID, nil
}

// ItemsInCategory returns topic members restricted to one category — the
// Topic→Category→Item drill-down of demo scenario C.
func (tx *Taxonomy) ItemsInCategory(id model.TopicID, cat model.CategoryID, corpus *model.Corpus) ([]model.ItemID, error) {
	t, err := tx.Topic(id)
	if err != nil {
		return nil, err
	}
	var out []model.ItemID
	for _, it := range t.Items {
		if corpus.Items[it].Category == cat {
			out = append(out, it)
		}
	}
	return out, nil
}

// Validate checks structural invariants: parent/child consistency (each
// topic's Children are exactly the topics naming it as parent, levels
// one apart), nested member sets, ascending member lists within range,
// and item and entity placement agreeing with the lists — every member
// of a topic is placed at that topic or below it. It never panics, and a
// taxonomy it accepts is a forest: RootOf terminates for every topic.
func (tx *Taxonomy) Validate() error {
	nT := len(tx.Topics)
	named := make([]int32, nT) // topics naming each topic as parent
	for i := range tx.Topics {
		t := &tx.Topics[i]
		if t.ID != model.TopicID(i) {
			return fmt.Errorf("taxonomy: topic at index %d has id %d", i, t.ID)
		}
		if t.Parent == NoTopic {
			if t.Level != 0 {
				return fmt.Errorf("taxonomy: root topic %d has level %d", t.ID, t.Level)
			}
			continue
		}
		if t.Parent < 0 || int(t.Parent) >= nT || t.Parent == t.ID {
			return fmt.Errorf("taxonomy: topic %d has bad parent %d", t.ID, t.Parent)
		}
		// Levels fall by one per step up, so parent chains cannot cycle.
		if p := &tx.Topics[t.Parent]; p.Level != t.Level-1 {
			return fmt.Errorf("taxonomy: topic %d level %d under parent level %d", t.ID, t.Level, p.Level)
		}
		named[t.Parent]++
	}
	for i := range tx.Topics {
		t := &tx.Topics[i]
		if err := ascending(t.ID, "child", t.Children, nT); err != nil {
			return err
		}
		for _, c := range t.Children {
			if tx.Topics[c].Parent != t.ID {
				return fmt.Errorf("taxonomy: topic %d lists child %d whose parent is %d", t.ID, c, tx.Topics[c].Parent)
			}
		}
		// Distinct children that all point back, as many as point back:
		// the list is exactly the topics naming t.
		if len(t.Children) != int(named[i]) {
			return fmt.Errorf("taxonomy: topic %d lists %d children but %d topics name it as parent", t.ID, len(t.Children), named[i])
		}
		if err := ascending(t.ID, "entity", t.Entities, len(tx.EntityTopic)); err != nil {
			return err
		}
		if err := ascending(t.ID, "item", t.Items, len(tx.ItemTopic)); err != nil {
			return err
		}
		if err := ascending(t.ID, "category", t.Categories, -1); err != nil {
			return err
		}
	}
	for e, tid := range tx.EntityTopic {
		if tid != NoTopic && (tid < 0 || int(tid) >= nT) {
			return fmt.Errorf("taxonomy: entity %d assigned to unknown topic %d", e, tid)
		}
	}
	for it, tid := range tx.ItemTopic {
		if tid != NoTopic && (tid < 0 || int(tid) >= nT) {
			return fmt.Errorf("taxonomy: item %d assigned to unknown topic %d", it, tid)
		}
	}

	// Member sets nest: stamp each parent's entities once, check each of
	// its children's against the stamp.
	stamp := make([]int32, len(tx.EntityTopic))
	for i := range tx.Topics {
		p := &tx.Topics[i]
		if len(p.Children) == 0 {
			continue
		}
		for _, e := range p.Entities {
			stamp[e] = int32(i) + 1
		}
		for _, c := range p.Children {
			for _, e := range tx.Topics[c].Entities {
				if stamp[e] != int32(i)+1 {
					return fmt.Errorf("taxonomy: topic %d member %d missing from parent %d", c, e, p.ID)
				}
			}
		}
	}

	// Placement: u lies at or below t iff in[t] <= in[u] < out[t], for
	// the preorder intervals of the forest the checks above proved.
	in, out := make([]int32, nT), make([]int32, nT)
	visited := make([]int32, nT) // children entered so far
	var clock int32
	var stack []model.TopicID
	for r := range tx.Topics {
		if tx.Topics[r].Parent != NoTopic {
			continue
		}
		in[r], clock = clock, clock+1
		stack = append(stack[:0], model.TopicID(r))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if kids := tx.Topics[u].Children; int(visited[u]) < len(kids) {
				c := kids[visited[u]]
				visited[u]++
				in[c], clock = clock, clock+1
				stack = append(stack, c)
				continue
			}
			out[u] = clock
			stack = stack[:len(stack)-1]
		}
	}
	below := func(u, t model.TopicID) bool { return u != NoTopic && in[t] <= in[u] && in[u] < out[t] }
	for i := range tx.Topics {
		t := &tx.Topics[i]
		for _, e := range t.Entities {
			if !below(tx.EntityTopic[e], t.ID) {
				return fmt.Errorf("taxonomy: topic %d lists entity %d, placed under topic %d", t.ID, e, tx.EntityTopic[e])
			}
		}
		for _, it := range t.Items {
			if !below(tx.ItemTopic[it], t.ID) {
				return fmt.Errorf("taxonomy: topic %d lists item %d, placed under topic %d", t.ID, it, tx.ItemTopic[it])
			}
		}
	}
	return nil
}

// ascending reports the first of topic t's listed ids that is negative,
// not below limit (when limit >= 0), or not above its predecessor.
func ascending[T ~int32](t model.TopicID, what string, ids []T, limit int) error {
	for j, id := range ids {
		if id < 0 || limit >= 0 && int(id) >= limit {
			return fmt.Errorf("taxonomy: topic %d lists %s %d out of range", t, what, id)
		}
		if j > 0 && id <= ids[j-1] {
			return fmt.Errorf("taxonomy: topic %d lists %s %d after %d: not strictly ascending", t, what, id, ids[j-1])
		}
	}
	return nil
}
