// Package model defines the domain types shared by every SHOAL subsystem:
// items, queries, categories, click events and their identifiers.
//
// The types mirror the entities in the paper's query-item bipartite graph
// (Fig. 2): users submit Queries, Queries lead to clicks on Items, Items
// belong to ontology Categories, and SHOAL groups Items into Topics.
//
// The package also owns the corpus's text plane (TextPlane, reached
// through Corpus.Text): the catalog's titles, query texts and category
// names tokenized once and interned to term ids, shared by every stage
// that needs token lists.
package model

import (
	"errors"
	"fmt"
	"sync"
)

// ItemID identifies a single item (a product listing).
type ItemID int32

// QueryID identifies a distinct normalized query string.
type QueryID int32

// CategoryID identifies a leaf category of the ontology-driven taxonomy.
type CategoryID int32

// EntityID identifies an item entity: a group of items with near-equivalent
// attribute labels and price (paper §2.1). Entities are the vertices of the
// item entity graph.
type EntityID int32

// TopicID identifies a topic node in the SHOAL hierarchical taxonomy.
type TopicID int32

// ScenarioID identifies a ground-truth shopping scenario in synthetic
// corpora. Real logs have no such labels; the synthetic generator emits them
// so that clustering quality is measurable (DESIGN.md §1.3).
type ScenarioID int32

// NoScenario marks an item with no ground-truth label (e.g. noise items).
const NoScenario ScenarioID = -1

// Item is a single product listing.
type Item struct {
	ID       ItemID
	Title    string
	Category CategoryID
	// PriceCents is the listing price in integer cents; entities group
	// items within a price band.
	PriceCents int64
	// Attrs are normalized attribute labels ("color=red"). Items with
	// equal categories, attribute sets and price bands form one entity.
	Attrs []string
	// Scenario is the generator's ground-truth label, NoScenario for
	// real-world corpora.
	Scenario ScenarioID
	// TitleAmbiguous marks synthetic items whose titles carry no
	// scenario-specific words (generic "hot sale" listings): such items
	// are only placeable through the query signal. Always false for
	// real-world corpora.
	TitleAmbiguous bool
}

// Query is a distinct normalized search query.
type Query struct {
	ID   QueryID
	Text string
	// Scenario is the generator's ground-truth intent, NoScenario for
	// real-world corpora.
	Scenario ScenarioID
}

// Category is a node of the ontology-driven taxonomy (Fig. 1(a)).
type Category struct {
	ID   CategoryID
	Name string
	// Parent is the parent category, or -1 for a root.
	Parent CategoryID
}

// RootCategory is the Parent value of ontology roots.
const RootCategory CategoryID = -1

// ClickEvent is one (query, item) click observation with its day-of-log
// timestamp. SHOAL consumes a sliding window of the last seven days (§3).
type ClickEvent struct {
	Query QueryID
	Item  ItemID
	// Day is the log day the click happened on (0 = oldest).
	Day int32
	// Count collapses repeated identical clicks.
	Count int32
}

// Corpus is the full input to the SHOAL pipeline: the catalog, the query
// dictionary and the click log. It is the in-memory equivalent of the
// paper's seven-day Taobao snapshot.
//
// A Corpus is immutable once a pipeline has seen it: everything derived
// from the catalog — entities, embeddings, the text plane below — is
// computed once per *Corpus and reused across rebuilds, so Items,
// Queries and Categories must not change after the first build (Clicks
// is never read by derived state and may be dropped or replaced). Hold
// and pass a Corpus by pointer; it carries a sync.Once.
type Corpus struct {
	Items      []Item
	Queries    []Query
	Categories []Category
	Clicks     []ClickEvent
	// Scenarios names the ground-truth scenarios when the corpus is
	// synthetic; empty otherwise.
	Scenarios []string

	// The lazily built text plane (see Text). Unexported, so the gob and
	// JSON encodings of a corpus do not carry it.
	textOnce sync.Once
	text     *TextPlane
}

// Validate checks referential integrity: every click refers to an existing
// query and item, every item to an existing category, and IDs are dense
// (Items[i].ID == i, and likewise for queries and categories). Dense IDs let
// downstream stages use slices instead of maps.
func (c *Corpus) Validate() error {
	if c == nil {
		return errors.New("model: nil corpus")
	}
	for i := range c.Items {
		if c.Items[i].ID != ItemID(i) {
			return fmt.Errorf("model: item at index %d has ID %d (IDs must be dense)", i, c.Items[i].ID)
		}
		cat := c.Items[i].Category
		if int(cat) < 0 || int(cat) >= len(c.Categories) {
			return fmt.Errorf("model: item %d references unknown category %d", i, cat)
		}
	}
	for i := range c.Queries {
		if c.Queries[i].ID != QueryID(i) {
			return fmt.Errorf("model: query at index %d has ID %d (IDs must be dense)", i, c.Queries[i].ID)
		}
	}
	for i := range c.Categories {
		if c.Categories[i].ID != CategoryID(i) {
			return fmt.Errorf("model: category at index %d has ID %d (IDs must be dense)", i, c.Categories[i].ID)
		}
		p := c.Categories[i].Parent
		if p != RootCategory && (int(p) < 0 || int(p) >= len(c.Categories)) {
			return fmt.Errorf("model: category %d references unknown parent %d", i, p)
		}
		if p == c.Categories[i].ID {
			return fmt.Errorf("model: category %d is its own parent", i)
		}
	}
	for i, ev := range c.Clicks {
		if int(ev.Query) < 0 || int(ev.Query) >= len(c.Queries) {
			return fmt.Errorf("model: click %d references unknown query %d", i, ev.Query)
		}
		if int(ev.Item) < 0 || int(ev.Item) >= len(c.Items) {
			return fmt.Errorf("model: click %d references unknown item %d", i, ev.Item)
		}
		if ev.Count <= 0 {
			return fmt.Errorf("model: click %d has non-positive count %d", i, ev.Count)
		}
		if ev.Day < 0 {
			return fmt.Errorf("model: click %d has negative day %d", i, ev.Day)
		}
	}
	return nil
}

// Stats summarizes corpus sizes for logging and reports.
type Stats struct {
	Items      int
	Queries    int
	Categories int
	Clicks     int
	ClickMass  int64 // sum of Count over all clicks
}

// Stats computes corpus size statistics.
func (c *Corpus) Stats() Stats {
	s := Stats{
		Items:      len(c.Items),
		Queries:    len(c.Queries),
		Categories: len(c.Categories),
		Clicks:     len(c.Clicks),
	}
	for _, ev := range c.Clicks {
		s.ClickMass += int64(ev.Count)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("items=%d queries=%d categories=%d clicks=%d mass=%d",
		s.Items, s.Queries, s.Categories, s.Clicks, s.ClickMass)
}

// CategoryPath returns the names from root to the given category, following
// Parent pointers. It returns an error on dangling or cyclic parents.
func (c *Corpus) CategoryPath(id CategoryID) ([]string, error) {
	var rev []string
	seen := make(map[CategoryID]bool)
	for id != RootCategory {
		if int(id) < 0 || int(id) >= len(c.Categories) {
			return nil, fmt.Errorf("model: unknown category %d in path", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("model: category parent cycle at %d", id)
		}
		seen[id] = true
		rev = append(rev, c.Categories[id].Name)
		id = c.Categories[id].Parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}
