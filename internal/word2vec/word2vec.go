// Package word2vec trains word embeddings with the skip-gram
// negative-sampling model. SHOAL's content-driven similarity (paper §2.1,
// Eq. 2) consumes word vectors of item-title tokens; the production system
// uses a pre-trained model, this package trains one in-process from the
// corpus titles so the repository has no external dependency.
//
// The trainer is one serial SGD loop over the sentences in index order,
// driven by one seeded RNG: a Config and a corpus determine the model bit
// for bit, whatever GOMAXPROCS is and whether or not the race detector is
// on. The context window, negative samples, learning rate, subsampling
// threshold and seed are package constants: the model stands in for the
// paper's pre-trained one, so nothing tunes them. Config holds only what
// a caller varies: the dimension, the epochs and the count floor.
//
// A step trains one (center, context) pair against six targets: the
// context word and five negative samples, drawn first (drawTargets). When
// the six targets are distinct, their dot products run as independent
// float64 chains in one element loop instead of six dependent chains back
// to back. That is exact: the center row changes only at the end of the
// step, and with no target repeated no context row is written before it
// is read, so each chain adds the same products in the same order. One
// element loop then applies the updates in target order, summing the
// center row's gradient from +0 as the serial loop's zeroed buffer does:
// starting it at the first product would keep a −0 that +0 turns into +0,
// and could flip the row's sign bit. A duplicate target, or a draw equal
// to the context word (fewer than six targets), takes the serial loop:
// 1-3 % of the pairs on synth catalogs, 85 % on TestTrainReproducible's
// ten-word corpus.
//
// The six-target dot and update loops are two kernels. On amd64 they are
// SSE2 assembly (kernel_amd64.s): the dot keeps the six chains in pairs
// of float64 lanes, and the update runs four float32 lanes, each lane
// doing what the Go loop does to its element in the same order, with no
// fused multiply-add. Every other GOARCH runs the Go loops, dotSixGo and
// updateSixGo, which are also the oracle TestSixKernelsMatchGo holds the
// assembly to bit for bit; GOARCH alone picks the kernel.
//
// TrainIDs trains from sentences of term ids over a caller's vocabulary
// (the corpus text plane's, in the pipeline), counting in a slice and
// encoding without a string lookup; Train interns string sentences and
// calls it. Model ids follow the sorted in-vocabulary words either way,
// so the model does not depend on how the words were numbered.
package word2vec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

	"shoal/internal/textutil"
)

// The trainer's fixed hyperparameters.
const (
	// window is the maximum one-sided context window.
	window = 4
	// negative is the number of negative samples per positive pair.
	negative = 5
	// learningRate is the initial learning rate, decayed linearly to a
	// tenth of it.
	learningRate = 0.05
	// subsample is the subsampling threshold t of frequent words: w is
	// kept with probability min(1, sqrt(t/f(w)) + t/f(w)).
	subsample = 1e-3
	// seed seeds the initial vectors and the sampling RNG.
	seed = 1
)

// Config controls training.
type Config struct {
	// Dim is the embedding dimensionality.
	Dim int
	// Epochs is the number of passes over the corpus.
	Epochs int
	// MinCount drops words rarer than this from training.
	MinCount int
	// Workers is read by nothing, written only by the frozen
	// benchmark/run.go: training is serial (ROADMAP item 8 deletes it).
	Workers int
}

// DefaultConfig returns sensible smalls-corpus defaults.
func DefaultConfig() Config {
	return Config{Dim: 32, Epochs: 3, MinCount: 2}
}

func (c *Config) validate() error {
	switch {
	case c.Dim <= 0:
		return errors.New("word2vec: Dim must be positive")
	case c.Epochs <= 0:
		return errors.New("word2vec: Epochs must be positive")
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
// training and returns the context error. It is TrainIDs over the
// sentences interned in first-seen order.
func Train(ctx context.Context, sentences [][]string, cfg Config) (*Model, error) {
	ids, v := textutil.Intern(sentences)
	return TrainIDs(ctx, v.Words(), ids, cfg)
}

// TrainIDs is Train over sentences of term ids, words the id-indexed
// vocabulary they spell (every id below len(words), every word distinct):
// the model is the one Train learns from the same sentences spelled as
// strings, whatever the ids. Model ids follow the in-vocabulary words in
// sorted order, so the encoded sentences, the unigram table, the
// keep-probabilities and the RNG's draws do not depend on the term ids.
func TrainIDs(ctx context.Context, words []string, sentences [][]uint32, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Vocabulary: the words seen at least MinCount times, in sorted order.
	termCounts := make([]int64, len(words))
	for _, s := range sentences {
		for _, w := range s {
			termCounts[w]++
		}
	}
	var terms []uint32
	for w, c := range termCounts {
		if c > 0 && int(c) >= cfg.MinCount {
			terms = append(terms, uint32(w))
		}
	}
	if len(terms) == 0 {
		return nil, errors.New("word2vec: no words above MinCount")
	}
	slices.SortFunc(terms, func(a, b uint32) int { return strings.Compare(words[a], words[b]) })
	vocab := make([]string, len(terms))
	counts := make([]int64, len(terms))
	modelID := make([]int32, len(words)) // term id → model id, −1 out of vocabulary
	for i := range modelID {
		modelID[i] = -1
	}
	ids := make(map[string]int, len(terms))
	for i, w := range terms {
		vocab[i], counts[i], modelID[w] = words[w], termCounts[w], int32(i)
		ids[words[w]] = i
	}

	// Encode sentences to model ids, dropping OOV words; encoded[off[i]:
	// off[i+1]] is the i-th sentence with two or more left.
	var encoded []int32
	off := []int{0}
	for _, s := range sentences {
		from := len(encoded)
		for _, w := range s {
			if id := modelID[w]; id >= 0 {
				encoded = append(encoded, id)
			}
		}
		if len(encoded)-from >= 2 {
			off = append(off, len(encoded))
		} else {
			encoded = encoded[:from]
		}
	}
	totalTokens := int64(len(encoded))
	if totalTokens == 0 {
		return nil, errors.New("word2vec: no trainable sentences (need >=2 in-vocab tokens)")
	}

	// Unigram table for negative sampling (frequency^0.75).
	table := buildUnigramTable(counts, 1<<17)

	// Keep-probabilities for subsampling.
	keep := make([]float64, len(vocab))
	for i, c := range counts {
		keep[i] = 1
		f := float64(c) / float64(totalTokens)
		if f > 0 {
			p := math.Sqrt(subsample/f) + subsample/f
			if p < 1 {
				keep[i] = p
			}
		}
	}

	dim := cfg.Dim
	vecs := make([]float32, len(vocab)*dim) // input vectors
	ctxs := make([]float32, len(vocab)*dim) // output (context) vectors
	initRng := rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15))
	for i := range vecs {
		vecs[i] = (float32(initRng.Float32()) - 0.5) / float32(dim)
	}

	sigm := newSigmoidTable()

	totalSteps := int64(cfg.Epochs) * totalTokens
	// The floor is a tenth of the start in float64 arithmetic, one ulp
	// above the constant expression learningRate*0.1, which folds to an
	// exact 0.005.
	lr0 := float64(learningRate)
	lrFloor := lr0 * 0.1
	rng := rand.New(rand.NewPCG(seed, 1))
	grad := make([]float32, dim)
	var kept []int32
	var done int64
	for ep := 0; ep < cfg.Epochs; ep++ {
		for si := range len(off) - 1 {
			sent := encoded[off[si]:off[si+1]]
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
				win := 1 + rng.IntN(window)
				lo, hi := max(pos-win, 0), min(pos+win, len(kept)-1)
				lr := max(lr0*(1-0.9*float64(done)/float64(totalSteps)), lrFloor)
				for cp := lo; cp <= hi; cp++ {
					if cp == pos {
						continue
					}
					trainPair(vecs, ctxs, int(kept[cp]), int(w), dim, lr, table, rng, grad, sigm)
				}
				done++
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	return &Model{dim: dim, ids: ids, words: vocab, vecs: vecs}, nil
}

// trainPair applies one skip-gram SGD step: center word `in`, positive
// context `out`, plus negative samples. It runs the six-chain kernel when
// the six targets are distinct and the serial one otherwise; both write
// the same bits (see the package doc).
func trainPair(vecs, ctxs []float32, in, out, dim int, lr float64, table []int32, rng *rand.Rand, grad []float32, sigm *sigmoidTable) {
	targets, nt := drawTargets(out, table, rng)
	vi := vecs[in*dim : (in+1)*dim]
	if nt == len(targets) && distinct(&targets) {
		trainSix(vi, ctxs, &targets, dim, lr, sigm)
		return
	}
	for i := range grad {
		grad[i] = 0
	}
	for n, target := range targets[:nt] {
		label := float32(0)
		if n == 0 {
			label = 1
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

// drawTargets returns out followed by the negatives drawn for it, and
// how many of the slots are filled: a draw equal to out is skipped.
// Nothing else in a step reads rng, so drawing them all first leaves its
// sequence as it was when each was drawn in its turn.
func drawTargets(out int, table []int32, rng *rand.Rand) (targets [negative + 1]int, nt int) {
	targets[0], nt = out, 1
	for n := 0; n < negative; n++ {
		if t := int(table[rng.IntN(len(table))]); t != out {
			targets[nt] = t
			nt++
		}
	}
	return targets, nt
}

// distinct reports whether no two targets are equal.
func distinct(t *[negative + 1]int) bool {
	for a := 1; a < len(t); a++ {
		for b := 0; b < a; b++ {
			if t[a] == t[b] {
				return false
			}
		}
	}
	return true
}

// trainSix is trainPair's step for six distinct targets, the first the
// positive one: the six dots (dotSix), their gradients, then the updates
// (updateSix).
func trainSix(vi, ctxs []float32, t *[negative + 1]int, dim int, lr float64, sigm *sigmoidTable) {
	var vo [negative + 1][]float32
	for k, target := range t {
		vo[k] = ctxs[target*dim : (target+1)*dim]
	}
	var d [negative + 1]float64
	dotSix(vi, &vo, &d)
	a := float32(lr)
	coef := [negative + 1]float32{
		a * (1 - sigm.at(d[0])),
		a * (0 - sigm.at(d[1])),
		a * (0 - sigm.at(d[2])),
		a * (0 - sigm.at(d[3])),
		a * (0 - sigm.at(d[4])),
		a * (0 - sigm.at(d[5])),
	}
	updateSix(vi, &vo, &coef)
}

// dotSixGo is the six-chain dot kernel: d[k] is the dot of vi with
// vo[k], a float64 chain in element order, the six chains independent.
// Every row is at least len(vi) long. It is the kernel on every GOARCH
// without an assembly one, and the oracle of those that have one.
func dotSixGo(vi []float32, vo *[negative + 1][]float32, d *[negative + 1]float64) {
	vo0, vo1, vo2 := vo[0][:len(vi)], vo[1][:len(vi)], vo[2][:len(vi)]
	vo3, vo4, vo5 := vo[3][:len(vi)], vo[4][:len(vi)], vo[5][:len(vi)]
	var d0, d1, d2, d3, d4, d5 float64
	for i, x := range vi {
		x := float64(x)
		d0 += float64(x * float64(vo0[i]))
		d1 += float64(x * float64(vo1[i]))
		d2 += float64(x * float64(vo2[i]))
		d3 += float64(x * float64(vo3[i]))
		d4 += float64(x * float64(vo4[i]))
		d5 += float64(x * float64(vo5[i]))
	}
	*d = [negative + 1]float64{d0, d1, d2, d3, d4, d5}
}

// updateSixGo is the six-target update kernel: per element, the targets
// in their order each add coef[k]·vo[k][i] to the center row's gradient
// and then take coef[k]·vi[i]; the gradient, summed from +0 as the serial
// kernel's grad is, then joins vi[i]. Every row is at least len(vi) long.
// Like dotSixGo, it is the kernel or the oracle.
func updateSixGo(vi []float32, vo *[negative + 1][]float32, coef *[negative + 1]float32) {
	vo0, vo1, vo2 := vo[0][:len(vi)], vo[1][:len(vi)], vo[2][:len(vi)]
	vo3, vo4, vo5 := vo[3][:len(vi)], vo[4][:len(vi)], vo[5][:len(vi)]
	g0, g1, g2, g3, g4, g5 := coef[0], coef[1], coef[2], coef[3], coef[4], coef[5]
	for i, x := range vi {
		gi := float32(0)
		gi += float32(g0 * vo0[i])
		vo0[i] += float32(g0 * x)
		gi += float32(g1 * vo1[i])
		vo1[i] += float32(g1 * x)
		gi += float32(g2 * vo2[i])
		vo2[i] += float32(g2 * x)
		gi += float32(g3 * vo3[i])
		vo3[i] += float32(g3 * x)
		gi += float32(g4 * vo4[i])
		vo4[i] += float32(g4 * x)
		gi += float32(g5 * vo5[i])
		vo5[i] += float32(g5 * x)
		vi[i] += gi
	}
}

// buildUnigramTable builds the standard f^0.75 negative-sampling table
// over the model ids' counts.
func buildUnigramTable(counts []int64, size int) []int32 {
	table := make([]int32, size)
	var z float64
	pows := make([]float64, len(counts))
	for i, c := range counts {
		pows[i] = math.Pow(float64(c), 0.75)
		z += pows[i]
	}
	var cum float64
	wi := 0
	cum = pows[0] / z
	for i := range table {
		table[i] = int32(wi)
		if float64(i+1)/float64(size) > cum && wi < len(counts)-1 {
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
