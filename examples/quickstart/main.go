// Quickstart: generate a synthetic corpus, build the SHOAL taxonomy, and
// walk the public API — search topics by query, descend into sub-topics,
// and inspect category correlations.
package main

import (
	"fmt"
	"log"

	"shoal"
)

func main() {
	log.SetFlags(0)

	// 1. A corpus. Real deployments ingest click logs; here the
	//    synthetic generator stands in for them (DESIGN.md §1.3).
	gen := shoal.DefaultCorpusConfig()
	gen.Scenarios = 12
	gen.ItemsPerScenario = 80
	corpus, err := shoal.GenerateCorpus(gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %s\n", corpus.Stats())

	// 2. Build the taxonomy with the paper's settings (α=0.7).
	cfg := shoal.DefaultConfig()
	cfg.Word2Vec.Epochs = 2
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12, 0.3, 0.5}
	// The paper's Sc > 10 threshold is calibrated for ~10^6 root topics;
	// at this corpus size a smaller pivot count needs a smaller bar.
	cfg.CatCorr.MinStrength = 2
	sys, err := shoal.Build(corpus, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built:  %s\n\n", sys.Stats())

	// 3. Scenario A — search topics with a real user query.
	probe := corpus.Queries[0].Text
	fmt.Printf("query %q:\n", probe)
	for _, hit := range sys.SearchTopics(probe, 3) {
		t, err := sys.Topic(hit.Topic)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  topic [%d] %q  score=%.2f items=%d categories=%d\n",
			t.ID, t.Description, hit.Score, len(t.Items), len(t.Categories))
	}

	// 4. Scenario B — descend into the first root topic's hierarchy.
	roots := sys.RootTopics()
	fmt.Printf("\nroot topics: %d; first root's subtree:\n", len(roots))
	root, err := sys.Topic(roots[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  [%d] %q (%d items)\n", root.ID, root.Description, len(root.Items))
	subs, err := sys.SubTopics(root.ID)
	if err != nil {
		log.Fatal(err)
	}
	for _, sid := range subs {
		st, err := sys.Topic(sid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    [%d] %q (%d items)\n", st.ID, st.Description, len(st.Items))
	}

	// 5. Scenario D — categories correlated through root topics.
	pairs := sys.CategoryCorrelations()
	fmt.Printf("\ncategory correlations above threshold: %d\n", len(pairs))
	for i, p := range pairs {
		if i >= 5 {
			break
		}
		fmt.Printf("  %s <-> %s (strength %d)\n",
			corpus.Categories[p.A].Name, corpus.Categories[p.B].Name, p.Strength)
	}
}
