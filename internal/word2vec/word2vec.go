// Package word2vec trains word embeddings with the skip-gram
// negative-sampling model. SHOAL's content-driven similarity (paper §2.1,
// Eq. 2) consumes word vectors of item-title tokens; the production system
// uses a pre-trained model, this package trains one in-process from the
// corpus titles so the repository has no external dependency.
//
// The trainer is one serial SGD loop over the sentences in index order,
// driven by one seeded RNG: a Config and a corpus determine the model bit
// for bit, whatever GOMAXPROCS is and whether or not the race detector is
// on.
package word2vec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Config controls training.
type Config struct {
	// Dim is the embedding dimensionality.
	Dim int
	// Window is the maximum one-sided context window.
	Window int
	// Negative is the number of negative samples per positive pair.
	Negative int
	// Epochs is the number of passes over the corpus.
	Epochs int
	// LR is the initial learning rate, decayed linearly to LR/10.
	LR float64
	// MinCount drops words rarer than this from training.
	MinCount int
	// Subsample is the subsampling threshold t of frequent words
	// (probability of keeping w is min(1, sqrt(t/f(w)) + t/f(w))).
	// Zero disables subsampling.
	Subsample float64
	// Workers is read by nothing, written only by the frozen
	// benchmark/run.go: training is serial (ROADMAP item 8 deletes it).
	Workers int
	// Seed makes runs reproducible.
	Seed uint64
}

// DefaultConfig returns sensible smalls-corpus defaults.
func DefaultConfig() Config {
	return Config{
		Dim:       32,
		Window:    4,
		Negative:  5,
		Epochs:    3,
		LR:        0.05,
		MinCount:  2,
		Subsample: 1e-3,
		Seed:      1,
	}
}

func (c *Config) validate() error {
	switch {
	case c.Dim <= 0:
		return errors.New("word2vec: Dim must be positive")
	case c.Window <= 0:
		return errors.New("word2vec: Window must be positive")
	case c.Negative < 0:
		return errors.New("word2vec: Negative must be non-negative")
	case c.Epochs <= 0:
		return errors.New("word2vec: Epochs must be positive")
	case c.LR <= 0:
		return errors.New("word2vec: LR must be positive")
	}
	return nil
}

// Model holds trained embeddings.
type Model struct {
	dim   int
	ids   map[string]int
	words []string
	// vecs is the input-embedding matrix, row per word, flattened.
	vecs []float32
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// Words returns the number of embedded words.
func (m *Model) Words() int { return len(m.words) }

// Vector returns the raw embedding of word and whether the word is known.
// The returned slice aliases model memory; callers must not modify it.
func (m *Model) Vector(word string) ([]float32, bool) {
	id, ok := m.ids[word]
	if !ok {
		return nil, false
	}
	return m.vecs[id*m.dim : (id+1)*m.dim], true
}

// NormVector returns the L2-normalized embedding of word as a fresh slice.
func (m *Model) NormVector(word string) ([]float32, bool) {
	v, ok := m.Vector(word)
	if !ok {
		return nil, false
	}
	out := make([]float32, len(v))
	var n float64
	for _, x := range v {
		n += float64(float64(x) * float64(x))
	}
	n = math.Sqrt(n)
	if n == 0 {
		return out, true
	}
	for i, x := range v {
		out[i] = float32(float64(x) / n)
	}
	return out, true
}

// Cosine returns the cosine similarity of two known words, or an error if
// either is out of vocabulary.
func (m *Model) Cosine(a, b string) (float64, error) {
	va, ok := m.Vector(a)
	if !ok {
		return 0, fmt.Errorf("word2vec: unknown word %q", a)
	}
	vb, ok := m.Vector(b)
	if !ok {
		return 0, fmt.Errorf("word2vec: unknown word %q", b)
	}
	return cosine(va, vb), nil
}

func cosine(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(float64(a[i]) * float64(b[i]))
		na += float64(float64(a[i]) * float64(a[i]))
		nb += float64(float64(b[i]) * float64(b[i]))
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Neighbor is a word with its cosine similarity to a probe.
type Neighbor struct {
	Word string
	Cos  float64
}

// Nearest returns the k nearest words to the probe word by cosine
// similarity, excluding the probe itself, best first.
func (m *Model) Nearest(word string, k int) ([]Neighbor, error) {
	v, ok := m.Vector(word)
	if !ok {
		return nil, fmt.Errorf("word2vec: unknown word %q", word)
	}
	out := make([]Neighbor, 0, len(m.words))
	for id, w := range m.words {
		if w == word {
			continue
		}
		out = append(out, Neighbor{Word: w, Cos: cosine(v, m.vecs[id*m.dim:(id+1)*m.dim])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cos != out[j].Cos {
			return out[i].Cos > out[j].Cos
		}
		return out[i].Word < out[j].Word
	})
	if k < len(out) {
		out = out[:k]
	}
	return out, nil
}

// Train learns embeddings from sentences (token slices). Tokens rarer than
// cfg.MinCount are ignored. It returns an error on empty effective input.
// Cancellation is checked every 256 sentences; a canceled ctx aborts
// training and returns the context error.
func Train(ctx context.Context, sentences [][]string, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Build vocabulary with counts.
	counts := make(map[string]int64)
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
		}
	}
	words := make([]string, 0, len(counts))
	for w, c := range counts {
		if int(c) >= cfg.MinCount {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil, errors.New("word2vec: no words above MinCount")
	}
	sort.Strings(words) // deterministic ids
	ids := make(map[string]int, len(words))
	for i, w := range words {
		ids[w] = i
	}

	// Encode sentences to ids, dropping OOV words.
	var encoded [][]int32
	var totalTokens int64
	for _, s := range sentences {
		enc := make([]int32, 0, len(s))
		for _, w := range s {
			if id, ok := ids[w]; ok {
				enc = append(enc, int32(id))
			}
		}
		if len(enc) >= 2 {
			encoded = append(encoded, enc)
			totalTokens += int64(len(enc))
		}
	}
	if len(encoded) == 0 {
		return nil, errors.New("word2vec: no trainable sentences (need >=2 in-vocab tokens)")
	}

	// Unigram table for negative sampling (frequency^0.75).
	table := buildUnigramTable(words, counts, 1<<17)

	// Keep-probabilities for subsampling.
	keep := make([]float64, len(words))
	for i, w := range words {
		keep[i] = 1
		if cfg.Subsample > 0 {
			f := float64(counts[w]) / float64(totalTokens)
			if f > 0 {
				p := math.Sqrt(cfg.Subsample/f) + cfg.Subsample/f
				if p < 1 {
					keep[i] = p
				}
			}
		}
	}

	dim := cfg.Dim
	vecs := make([]float32, len(words)*dim) // input vectors
	ctxs := make([]float32, len(words)*dim) // output (context) vectors
	initRng := rand.New(rand.NewPCG(cfg.Seed, 0x9E3779B97F4A7C15))
	for i := range vecs {
		vecs[i] = (float32(initRng.Float32()) - 0.5) / float32(dim)
	}

	sigm := newSigmoidTable()

	totalSteps := int64(cfg.Epochs) * totalTokens
	rng := rand.New(rand.NewPCG(cfg.Seed, 1))
	grad := make([]float32, dim)
	var kept []int32
	var done int64
	for ep := 0; ep < cfg.Epochs; ep++ {
		for si, sent := range encoded {
			if si%256 == 255 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			// Subsample this sentence.
			kept = kept[:0]
			for _, w := range sent {
				if keep[w] >= 1 || rng.Float64() < keep[w] {
					kept = append(kept, w)
				}
			}
			for pos, w := range kept {
				win := 1 + rng.IntN(cfg.Window)
				lo, hi := max(pos-win, 0), min(pos+win, len(kept)-1)
				lr := max(cfg.LR*(1-0.9*float64(done)/float64(totalSteps)), cfg.LR*0.1)
				for cp := lo; cp <= hi; cp++ {
					if cp == pos {
						continue
					}
					trainPair(vecs, ctxs, int(kept[cp]), int(w), dim, lr, cfg.Negative, table, rng, grad, sigm)
				}
				done++
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	return &Model{dim: dim, ids: ids, words: words, vecs: vecs}, nil
}

// trainPair applies one skip-gram SGD step: center word `in`, positive
// context `out`, plus negative samples.
func trainPair(vecs, ctxs []float32, in, out, dim int, lr float64, negative int, table []int32, rng *rand.Rand, grad []float32, sigm *sigmoidTable) {
	vi := vecs[in*dim : (in+1)*dim]
	for i := range grad {
		grad[i] = 0
	}
	for n := 0; n <= negative; n++ {
		var target int
		var label float32
		if n == 0 {
			target, label = out, 1
		} else {
			target = int(table[rng.IntN(len(table))])
			if target == out {
				continue
			}
			label = 0
		}
		vo := ctxs[target*dim : (target+1)*dim]
		var dot float64
		for i := range vi {
			dot += float64(float64(vi[i]) * float64(vo[i]))
		}
		g := float32(lr) * (label - sigm.at(dot))
		for i := range vi {
			grad[i] += float32(g * vo[i])
			vo[i] += float32(g * vi[i])
		}
	}
	for i := range vi {
		vi[i] += grad[i]
	}
}

// buildUnigramTable builds the standard f^0.75 negative-sampling table.
func buildUnigramTable(words []string, counts map[string]int64, size int) []int32 {
	table := make([]int32, size)
	var z float64
	pows := make([]float64, len(words))
	for i, w := range words {
		pows[i] = math.Pow(float64(counts[w]), 0.75)
		z += pows[i]
	}
	var cum float64
	wi := 0
	cum = pows[0] / z
	for i := range table {
		table[i] = int32(wi)
		if float64(i+1)/float64(size) > cum && wi < len(words)-1 {
			wi++
			cum += pows[wi] / z
		}
	}
	return table
}

// sigmoidTable precomputes sigmoid on [-6,6] for speed.
type sigmoidTable struct {
	vals []float32
}

const sigmoidRange = 6.0

func newSigmoidTable() *sigmoidTable {
	const n = 1024
	t := &sigmoidTable{vals: make([]float32, n)}
	for i := 0; i < n; i++ {
		x := (float64(float64(i)/n)*2 - 1) * sigmoidRange
		t.vals[i] = float32(1 / (1 + math.Exp(-x)))
	}
	return t
}

func (t *sigmoidTable) at(x float64) float32 {
	if x <= -sigmoidRange {
		return 0
	}
	if x >= sigmoidRange {
		return 1
	}
	i := int((x/sigmoidRange + 1) / 2 * float64(len(t.vals)))
	if i >= len(t.vals) {
		i = len(t.vals) - 1
	}
	return t.vals[i]
}
