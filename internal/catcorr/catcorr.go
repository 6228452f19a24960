// Package catcorr mines correlations between ontology categories from the
// query-driven taxonomy (paper §2.4, Eq. 5).
//
// Root topics act as pivots: the correlation strength of two categories is
// the number of root topics whose category set contains both. Pairs with
// strength above a threshold (the paper uses > 10) form the category
// correlation graph that powers "related category" recommendation (demo
// scenario D). Mine lays the graph out once, in the order it is served:
// a request reads a span of it and neither allocates nor sorts.
package catcorr

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"shoal/internal/model"
	"shoal/internal/taxonomy"
)

// Config controls correlation mining.
type Config struct {
	// MinStrength keeps a pair only if its co-occurrence count is
	// strictly greater. The paper uses 10.
	MinStrength int
}

// DefaultConfig mirrors the paper's Sc > 10 rule.
func DefaultConfig() Config { return Config{MinStrength: 10} }

// Correlation is one correlated category pair (A < B).
type Correlation struct {
	A, B model.CategoryID
	// Strength is Sc(A, B): the number of root topics containing both.
	Strength int
}

// Graph is the mined category correlation graph, laid out once by Mine:
// pairs holds every correlated pair sorted by (A, B), and category c's
// pairs are byCat[off[c]:off[c+1]], strongest first, ties by the other
// category ascending.
type Graph struct {
	pairs []Correlation
	off   []int
	byCat []Correlation
}

// Mine computes Eq. 5 over the root topics of tx. Cancellation is checked
// between root topics.
func Mine(ctx context.Context, tx *taxonomy.Taxonomy, cfg Config) (*Graph, error) {
	if cfg.MinStrength < 0 {
		return nil, fmt.Errorf("catcorr: MinStrength must be non-negative, got %d", cfg.MinStrength)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	counts := make(map[[2]model.CategoryID]int)
	for ri, root := range tx.Roots() {
		if ri%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		cats := tx.Topics[root].Categories // sorted, distinct
		for i := 0; i < len(cats); i++ {
			for j := i + 1; j < len(cats); j++ {
				counts[[2]model.CategoryID{cats[i], cats[j]}]++
			}
		}
	}
	g := &Graph{}
	maxCat := model.CategoryID(-1)
	for k, n := range counts {
		if n > cfg.MinStrength {
			g.pairs = append(g.pairs, Correlation{A: k[0], B: k[1], Strength: n})
			maxCat = max(maxCat, k[1])
		}
	}
	g.pairs = slices.Clip(g.pairs)
	slices.SortFunc(g.pairs, func(x, y Correlation) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	// Count each category's pairs into off[c], sum the counts up to the
	// ends of the spans, and fill each span from its end, which leaves
	// off[c] at its start.
	g.off = make([]int, maxCat+2)
	for _, p := range g.pairs {
		g.off[p.A]++
		g.off[p.B]++
	}
	for c := 1; c < len(g.off); c++ {
		g.off[c] += g.off[c-1]
	}
	g.byCat = make([]Correlation, 2*len(g.pairs))
	for _, p := range g.pairs {
		for _, c := range [2]model.CategoryID{p.A, p.B} {
			g.off[c]--
			g.byCat[g.off[c]] = p
		}
	}
	for c := model.CategoryID(0); c <= maxCat; c++ {
		slices.SortFunc(g.byCat[g.off[c]:g.off[c+1]], func(x, y Correlation) int {
			return cmp.Or(cmp.Compare(y.Strength, x.Strength), cmp.Compare(other(x, c), other(y, c)))
		})
	}
	return g, nil
}

// Related returns the categories correlated with c, strongest first (ties
// by ascending id) — demo scenario D's star graph around a category. The
// slice belongs to the graph and must not be modified.
func (g *Graph) Related(c model.CategoryID) []Correlation {
	if c < 0 || int(c) >= len(g.off)-1 {
		return nil
	}
	return g.byCat[g.off[c]:g.off[c+1]:g.off[c+1]]
}

// Pairs returns every correlated pair, sorted by (A, B). The slice
// belongs to the graph and must not be modified.
func (g *Graph) Pairs() []Correlation { return g.pairs }

func other(c Correlation, self model.CategoryID) model.CategoryID {
	if c.A == self {
		return c.B
	}
	return c.A
}
