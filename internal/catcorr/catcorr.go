// Package catcorr mines correlations between ontology categories from the
// query-driven taxonomy (paper §2.4, Eq. 5).
//
// Root topics act as pivots: the correlation strength of two categories is
// the number of root topics whose category set contains both. Pairs with
// strength above a threshold (the paper uses > 10) form the category
// correlation graph that powers "related category" recommendation (demo
// scenario D).
package catcorr

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

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

// Graph is the mined category correlation graph.
type Graph struct {
	pairs map[[2]model.CategoryID]int
	adj   map[model.CategoryID]map[model.CategoryID]int
	cfg   Config
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
	g := &Graph{
		pairs: make(map[[2]model.CategoryID]int),
		adj:   make(map[model.CategoryID]map[model.CategoryID]int),
		cfg:   cfg,
	}
	for ri, root := range tx.Roots() {
		if ri%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		cats := tx.Topics[root].Categories // sorted, distinct
		for i := 0; i < len(cats); i++ {
			for j := i + 1; j < len(cats); j++ {
				g.pairs[[2]model.CategoryID{cats[i], cats[j]}]++
			}
		}
	}
	for k, n := range g.pairs {
		if n <= cfg.MinStrength {
			continue
		}
		g.link(k[0], k[1], n)
		g.link(k[1], k[0], n)
	}
	return g, nil
}

func (g *Graph) link(a, b model.CategoryID, n int) {
	if g.adj[a] == nil {
		g.adj[a] = make(map[model.CategoryID]int)
	}
	g.adj[a][b] = n
}

// Strength returns the raw co-occurrence count of a pair (before
// thresholding).
func (g *Graph) Strength(a, b model.CategoryID) int {
	if a > b {
		a, b = b, a
	}
	return g.pairs[[2]model.CategoryID{a, b}]
}

// Correlated reports whether the pair passed the threshold.
func (g *Graph) Correlated(a, b model.CategoryID) bool {
	return g.adj[a][b] > 0
}

// Related returns the categories correlated with c, strongest first (ties
// by ascending id) — demo scenario D's star graph around a category.
func (g *Graph) Related(c model.CategoryID) []Correlation {
	m := g.adj[c]
	out := make([]Correlation, 0, len(m))
	for other, n := range m {
		a, b := c, other
		if a > b {
			a, b = b, a
		}
		out = append(out, Correlation{A: a, B: b, Strength: n})
	}
	// The order is total (other endpoints are distinct), so any sort
	// yields it; SortFunc does without sort.Slice's reflection, and a
	// request for related categories allocates only out.
	slices.SortFunc(out, func(x, y Correlation) int {
		if x.Strength != y.Strength {
			return cmp.Compare(y.Strength, x.Strength)
		}
		return cmp.Compare(other(x, c), other(y, c))
	})
	return out
}

// Pairs returns every correlated pair, sorted by (A, B).
func (g *Graph) Pairs() []Correlation {
	out := make([]Correlation, 0, len(g.pairs))
	for k, n := range g.pairs {
		if n > g.cfg.MinStrength {
			out = append(out, Correlation{A: k[0], B: k[1], Strength: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func other(c Correlation, self model.CategoryID) model.CategoryID {
	if c.A == self {
		return c.B
	}
	return c.A
}
