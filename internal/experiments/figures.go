package experiments

import (
	"fmt"

	"shoal/internal/phac"
	"shoal/internal/wgraph"
)

// Figure3Graph reconstructs the 13-node worked example of paper Fig. 3
// (node names A..M map to ids 0..12). The exact adjacency is not published
// machine-readably; this reconstruction uses the figure's weight vocabulary
// and reproduces the described behaviour. The literal is in the canonical
// (U, V) order wgraph.FromEdges takes.
func Figure3Graph() *wgraph.CSR {
	g, err := wgraph.FromEdges(13, []wgraph.Edge{
		{U: 0, V: 1, W: 0.90},   // A-B
		{U: 0, V: 2, W: 0.70},   // A-C
		{U: 0, V: 3, W: 0.67},   // A-D
		{U: 1, V: 7, W: 0.65},   // B-H
		{U: 1, V: 10, W: 0.74},  // B-K
		{U: 2, V: 3, W: 0.62},   // C-D
		{U: 2, V: 9, W: 0.64},   // C-J
		{U: 3, V: 8, W: 0.58},   // D-I
		{U: 4, V: 5, W: 0.91},   // E-F
		{U: 4, V: 6, W: 0.68},   // E-G
		{U: 5, V: 6, W: 0.65},   // F-G
		{U: 5, V: 9, W: 0.61},   // F-J
		{U: 6, V: 9, W: 0.53},   // G-J
		{U: 6, V: 11, W: 0.68},  // G-L
		{U: 7, V: 8, W: 0.61},   // H-I
		{U: 9, V: 11, W: 0.58},  // J-L
		{U: 11, V: 12, W: 0.63}, // L-M
	})
	if err != nil {
		panic("experiments: Figure3Graph literal is not canonical: " + err.Error())
	}
	return g
}

// F3LocalMaxima replays the paper's Fig. 3 narrative: after two diffusion
// iterations, (A,B) and (E,F) are the locally-maximal edges and merge in
// parallel.
func F3LocalMaxima() (*Table, error) {
	g := Figure3Graph()
	names := "ABCDEFGHIJKLM"
	t := &Table{
		ID:         "F3",
		Title:      "Fig. 3 worked example: local maximal edges per diffusion depth",
		PaperClaim: "edges (A,B) and (E,F) are the two local maximal edges after two diffusion iterations",
		Header:     []string{"r", "selected-edges"},
	}
	for r := 0; r <= 3; r++ {
		sel, err := phac.Diffuse(g, r, 0.3)
		if err != nil {
			return nil, err
		}
		var cells string
		for i, e := range sel {
			if i > 0 {
				cells += " "
			}
			cells += fmt.Sprintf("%c%c@%.2f", names[e.U], names[e.V], e.Sim)
		}
		t.Rows = append(t.Rows, []string{itoa(r), cells})
	}
	t.Notes = append(t.Notes, "reconstructed graph; see internal/experiments/figures.go")
	return t, nil
}

// Runner executes experiments by id.
type Runner struct {
	// Scale selects corpus sizes.
	Scale Scale
	// Seeds are the corpus seeds for multi-seed experiments.
	Seeds []uint64
	// ABUsers is the simulated user count for E2.
	ABUsers int
}

// DefaultRunner uses three seeds at the given scale.
func DefaultRunner(sc Scale) *Runner {
	return &Runner{Scale: sc, Seeds: []uint64{1, 2, 3}, ABUsers: 100_000}
}

// IDs lists the experiment ids in execution order.
func (r *Runner) IDs() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "F3"}
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) (*Table, error) {
	switch id {
	case "E1":
		return E1Precision(r.Scale, r.Seeds)
	case "E2":
		return E2ABTest(r.Scale, r.ABUsers, r.Seeds)
	case "E3":
		return E3Modularity(r.Scale, r.Seeds)
	case "E4":
		return E4Scaling(r.Scale, r.Seeds[0])
	case "E5":
		return E5Diffusion(r.Scale, r.Seeds[0], 5)
	case "E6":
		return E6Alpha(r.Scale, r.Seeds[0], []float64{0, 0.25, 0.5, 0.7, 0.9, 1})
	case "E7":
		return E7CatCorr(r.Scale, r.Seeds[0], []int{0, 2, 5, 10, 20})
	case "E8":
		return E8Linkage(r.Scale, r.Seeds[0])
	case "E9":
		return E9BSP(r.Scale, r.Seeds[0])
	case "E10":
		return E10Baseline(r.Scale, r.Seeds[0])
	case "E11":
		return E11Daily(r.Scale, r.Seeds[0], 14)
	case "F3":
		return F3LocalMaxima()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}
