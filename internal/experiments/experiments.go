// Package experiments regenerates every quantitative claim and figure of
// the paper's evaluation (PAPER.md has its abstract). Each experiment
// builds its own inputs from the synthetic corpus generator, runs the
// relevant pipeline stages, and returns a Table whose rows mirror what
// the paper reports. cmd/shoal-bench prints these tables; the root
// bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"shoal/internal/core"
	"shoal/internal/model"
	"shoal/internal/synth"
)

// Table is one experiment's result in printable form.
type Table struct {
	ID         string
	Title      string
	PaperClaim string
	Header     []string
	Rows       [][]string
	Notes      []string
}

// Render pretty-prints the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.PaperClaim != "" {
		if _, err := fmt.Fprintf(w, "paper: %s\n", t.PaperClaim); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	dashes := make([]string, len(t.Header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(dashes)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Scale selects experiment input sizes. Small keeps unit tests fast;
// Medium is the shoal-bench default; Large stresses the scaling runs.
type Scale int

const (
	// Small: ~2k items, seconds per experiment.
	Small Scale = iota
	// Medium: ~8k items.
	Medium
	// Large: ~30k items.
	Large
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	default:
		return Small, fmt.Errorf("experiments: unknown scale %q (small|medium|large)", s)
	}
}

// corpusConfig returns the generator settings for a scale.
func corpusConfig(sc Scale, seed uint64) synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	switch sc {
	case Small:
		cfg.Scenarios = 12
		cfg.ItemsPerScenario = 80
		cfg.QueriesPerScenario = 20
		cfg.NoiseItems = 60
		cfg.HeadQueries = 10
	case Medium:
		cfg.Scenarios = 40
		cfg.ItemsPerScenario = 200
		cfg.QueriesPerScenario = 40
		cfg.NoiseItems = 200
		cfg.HeadQueries = 30
	case Large:
		cfg.Scenarios = 120
		cfg.ItemsPerScenario = 250
		cfg.QueriesPerScenario = 50
		cfg.NoiseItems = 600
		cfg.HeadQueries = 60
	}
	return cfg
}

// stopTh is the clustering stop threshold shared by every experiment. It
// sits well below the graph-construction filter (0.25): Eq. 4 treats
// absent edges as zeros, so merged-cluster similarities dilute as clusters
// grow, and clustering must keep merging below the initial edge weights to
// assemble whole scenarios.
const stopTh = 0.10

// pipelineConfig returns pipeline settings tuned for synthetic corpora.
func pipelineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Word2Vec.Epochs = 2
	cfg.Word2Vec.Dim = 24
	cfg.Word2Vec.MinCount = 2
	cfg.Graph.MinSimilarity = 0.25
	// Head queries ("dress") click broadly across scenarios; capping
	// candidate generation at a fanout of 50 entities keeps them from
	// wiring unrelated items together (§2.1 sparsification).
	cfg.Graph.MaxQueryFanout = 50
	cfg.HAC.StopThreshold = stopTh
	cfg.Taxonomy.Levels = []float64{stopTh, 0.3, 0.5}
	return cfg
}

// buildSystem generates a corpus and runs the full pipeline.
func buildSystem(sc Scale, seed uint64) (*model.Corpus, *core.Build, error) {
	corpus, err := synth.Generate(corpusConfig(sc, seed))
	if err != nil {
		return nil, nil, err
	}
	b, err := core.Run(corpus, pipelineConfig())
	if err != nil {
		return nil, nil, err
	}
	return corpus, b, nil
}

func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string   { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string  { return fmt.Sprintf("%.1f%%", 100*v) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func i64toa(v int64) string { return fmt.Sprintf("%d", v) }
