package experiments

import (
	"context"
	"fmt"

	"shoal/internal/bipartite"
	"shoal/internal/catcorr"
	"shoal/internal/entitygraph"
	"shoal/internal/eval"
	"shoal/internal/model"
	"shoal/internal/phac"
	"shoal/internal/synth"
	"shoal/internal/taxonomy"
	"shoal/internal/textutil"
	"shoal/internal/word2vec"
)

// E6Alpha ablates the Eq. 3 similarity blend: the paper sets α = 0.7
// (query-driven weight). The sweep measures clustering quality (NMI and
// placement precision) as α moves from pure content (0) to pure query (1).
func E6Alpha(sc Scale, seed uint64, alphas []float64) (*Table, error) {
	corpus, err := synth.Generate(corpusConfig(sc, seed))
	if err != nil {
		return nil, err
	}
	es, err := entitygraph.BuildEntities(context.Background(), corpus)
	if err != nil {
		return nil, err
	}
	clicks := bipartite.New(7)
	if err := clicks.AddAll(corpus.Clicks); err != nil {
		return nil, err
	}
	sentences := make([][]string, 0, len(corpus.Items))
	for i := range corpus.Items {
		sentences = append(sentences, textutil.Tokenize(corpus.Items[i].Title))
	}
	w2v := word2vec.DefaultConfig()
	w2v.Epochs = 2
	w2v.Dim = 24
	emb, err := word2vec.Train(context.Background(), sentences, w2v)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:         "E6",
		Title:      "Similarity blend ablation: alpha sweep (Eq. 3)",
		PaperClaim: "alpha is set to 0.7 for the demonstration",
		Header:     []string{"alpha", "edges", "NMI", "purity", "precision"},
	}
	sizes := func(es *entitygraph.EntitySet) []int {
		out := make([]int, len(es.Entities))
		for i := range out {
			out[i] = es.Entities[i].Size()
		}
		return out
	}
	for _, alpha := range alphas {
		gcfg := entitygraph.DefaultConfig()
		gcfg.Alpha = alpha
		gcfg.MinSimilarity = 0.25
		res, err := entitygraph.Build(context.Background(), es, clicks, emb, gcfg)
		if err != nil {
			return nil, err
		}
		cres, err := phac.Cluster(context.Background(), res.Graph, sizes(es), phac.Config{StopThreshold: stopTh, DiffusionRounds: 2})
		if err != nil {
			return nil, err
		}
		tx, err := taxonomy.Build(context.Background(), cres.Dendrogram, es, corpus, taxonomy.Config{Levels: []float64{stopTh}})
		if err != nil {
			return nil, err
		}
		row := []string{f3(alpha), itoa(res.Graph.NumEdges())}
		labels := cres.Dendrogram.CutAt(stopTh)
		truth := make([]model.ScenarioID, len(es.Entities))
		for i := range es.Entities {
			truth[i] = es.Entities[i].Scenario
		}
		part, err := eval.LabelsPartition(labels, truth)
		if err != nil {
			return nil, err
		}
		row = append(row, f3(part.NMI()), f3(part.Purity()))
		prec, err := eval.Precision(tx, corpus, eval.PrecisionConfig{
			MinTopicItems: 3, RootTopicsOnly: true, Seed: seed,
		})
		if err != nil {
			row = append(row, "n/a")
		} else {
			row = append(row, pct(prec.Precision))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "NMI/purity: entity-level cut at the stop threshold vs ground-truth scenarios")
	return t, nil
}

// E7CatCorr reproduces the §2.4 correlation threshold choice: pairs are
// kept iff their root-topic co-occurrence exceeds the threshold (paper:
// 10). Correlation precision is judged against the generator: a pair is
// correct when some ground-truth scenario uses both categories.
func E7CatCorr(sc Scale, seed uint64, thresholds []int) (*Table, error) {
	corpus, b, err := buildSystem(sc, seed)
	if err != nil {
		return nil, err
	}
	// Ground truth: category pairs co-used by a scenario.
	scenCats := make(map[model.ScenarioID]map[model.CategoryID]bool)
	for i := range corpus.Items {
		s := corpus.Items[i].Scenario
		if s == model.NoScenario {
			continue
		}
		if scenCats[s] == nil {
			scenCats[s] = make(map[model.CategoryID]bool)
		}
		scenCats[s][corpus.Items[i].Category] = true
	}
	truth := make(map[[2]model.CategoryID]bool)
	for _, cats := range scenCats {
		var list []model.CategoryID
		for c := range cats {
			list = append(list, c)
		}
		for i := 0; i < len(list); i++ {
			for j := 0; j < len(list); j++ {
				if list[i] < list[j] {
					truth[[2]model.CategoryID{list[i], list[j]}] = true
				}
			}
		}
	}

	t := &Table{
		ID:         "E7",
		Title:      "Category correlation threshold sweep (Eq. 5)",
		PaperClaim: "a correlation exists only if Sc(Ci,Cj) > 10",
		Header:     []string{"threshold", "pairs-kept", "correct", "precision"},
	}
	for _, th := range thresholds {
		g, err := catcorr.Mine(context.Background(), b.Taxonomy, catcorr.Config{MinStrength: th})
		if err != nil {
			return nil, err
		}
		pairs := g.Pairs()
		correct := 0
		for _, p := range pairs {
			if truth[[2]model.CategoryID{p.A, p.B}] {
				correct++
			}
		}
		prec := "n/a"
		if len(pairs) > 0 {
			prec = pct(float64(correct) / float64(len(pairs)))
		}
		t.Rows = append(t.Rows, []string{itoa(th), itoa(len(pairs)), itoa(correct), prec})
	}
	t.Notes = append(t.Notes,
		"correct: both categories are used by at least one common ground-truth scenario",
		fmt.Sprintf("root topics available as pivots: %d", len(b.Taxonomy.Roots())))
	return t, nil
}
