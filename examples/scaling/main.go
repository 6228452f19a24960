// Scaling demonstrates why the paper needed Parallel HAC (§2.2): the
// sequential baseline merges one pair per iteration, while Parallel HAC
// merges every locally-maximal edge of a round at once. The example
// builds one taxonomy and prints the round-level profile: how many
// node-disjoint merges each round offered.
package main

import (
	"fmt"
	"log"

	"shoal"
)

func main() {
	log.SetFlags(0)

	gen := shoal.DefaultCorpusConfig()
	gen.Scenarios = 40
	gen.ItemsPerScenario = 150
	corpus, err := shoal.GenerateCorpus(gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %s\n", corpus.Stats())

	cfg := shoal.DefaultConfig()
	cfg.Word2Vec.Epochs = 2
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12, 0.3, 0.5}
	sys, err := shoal.Build(corpus, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built:  %s\n", sys.Stats())

	// Every merge of a round is independent of the others (the selected
	// edges are node-disjoint), so a round's "merged" column is the work
	// it offers in parallel; a sequential HAC spends one iteration per
	// merge.
	fmt.Printf("\nParallel HAC round profile (diffusion r=%d):\n", cfg.HAC.DiffusionRounds)
	fmt.Printf("%-6s %-16s %-14s %-10s\n", "round", "active-clusters", "active-edges", "merged")
	merges := 0
	for _, r := range sys.Rounds() {
		fmt.Printf("%-6d %-16d %-14d %-10d\n", r.Round, r.ActiveClusters, r.ActiveEdges, r.Selected)
		merges += r.Selected
	}
	fmt.Printf("\n%d merges in %d rounds; sequential HAC needs one iteration per merge\n", merges, len(sys.Rounds()))
}
