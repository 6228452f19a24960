package word2vec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
)

// syntheticSentences builds a corpus with two disjoint topical clusters so
// embeddings must separate them: {beach, swim, sun, sand, surf} and
// {snow, ski, ice, boot, glove}.
func syntheticSentences(n int, seed uint64) [][]string {
	beach := []string{"beach", "swim", "sun", "sand", "surf"}
	snow := []string{"snow", "ski", "ice", "boot", "glove"}
	rng := rand.New(rand.NewPCG(seed, 0))
	var out [][]string
	for i := 0; i < n; i++ {
		pool := beach
		if i%2 == 1 {
			pool = snow
		}
		s := make([]string, 6)
		for j := range s {
			s[j] = pool[rng.IntN(len(pool))]
		}
		out = append(out, s)
	}
	return out
}

func trainTestModel(t *testing.T) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.Epochs = 8
	cfg.MinCount = 1
	m, err := Train(context.Background(), syntheticSentences(400, 7), cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m
}

// goldenDefaultSHA256 is the SHA-256 of the Save bytes of a DefaultConfig()
// model trained on syntheticSentences(400, 7) by the single-worker trainer
// that predates the serial one. Equality proves the serial loop reproduces
// it bit for bit, so embeddings trained with that configuration did not move.
const goldenDefaultSHA256 = "630aaa71e89c61ff30fd3008802d7597d0bb91bdce7e520856c8384fd831c13b"

func TestTrainReproducible(t *testing.T) {
	saved := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, err := Train(context.Background(), syntheticSentences(400, 7), DefaultConfig())
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, four := saved(1), saved(4)
	if !bytes.Equal(one, four) {
		t.Fatal("model bytes differ between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
	if sum := sha256.Sum256(one); hex.EncodeToString(sum[:]) != goldenDefaultSHA256 {
		t.Fatalf("model SHA-256 = %x, want %s", sum, goldenDefaultSHA256)
	}
}

func TestTrainSeparatesClusters(t *testing.T) {
	m := trainTestModel(t)
	within, err := m.Cosine("beach", "swim")
	if err != nil {
		t.Fatal(err)
	}
	across, err := m.Cosine("beach", "ski")
	if err != nil {
		t.Fatal(err)
	}
	if within <= across {
		t.Fatalf("cosine(beach,swim)=%.3f not greater than cosine(beach,ski)=%.3f", within, across)
	}
}

func TestNearest(t *testing.T) {
	m := trainTestModel(t)
	nb, err := m.Nearest("ski", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 4 {
		t.Fatalf("Nearest returned %d, want 4", len(nb))
	}
	snow := map[string]bool{"snow": true, "ice": true, "boot": true, "glove": true}
	hits := 0
	for _, n := range nb {
		if snow[n.Word] {
			hits++
		}
	}
	if hits < 3 {
		t.Fatalf("Nearest(ski) = %v, want >=3 snow-cluster words", nb)
	}
}

func TestNearestUnknown(t *testing.T) {
	m := trainTestModel(t)
	if _, err := m.Nearest("zebra", 3); err == nil {
		t.Fatal("Nearest(unknown) = nil error, want error")
	}
}

func TestCosineUnknown(t *testing.T) {
	m := trainTestModel(t)
	if _, err := m.Cosine("zebra", "beach"); err == nil {
		t.Fatal("Cosine(unknown,known) = nil error, want error")
	}
	if _, err := m.Cosine("beach", "zebra"); err == nil {
		t.Fatal("Cosine(known,unknown) = nil error, want error")
	}
}

func TestVectorShape(t *testing.T) {
	m := trainTestModel(t)
	v, ok := m.Vector("beach")
	if !ok {
		t.Fatal("Vector(beach) not found")
	}
	if len(v) != m.Dim() {
		t.Fatalf("len(Vector) = %d, want Dim %d", len(v), m.Dim())
	}
	if _, ok := m.Vector("zebra"); ok {
		t.Fatal("Vector(zebra) reported ok")
	}
}

func TestNormVectorUnitLength(t *testing.T) {
	m := trainTestModel(t)
	v, ok := m.NormVector("sun")
	if !ok {
		t.Fatal("NormVector(sun) not found")
	}
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	if math.Abs(math.Sqrt(n)-1) > 1e-4 {
		t.Fatalf("NormVector length = %f, want 1", math.Sqrt(n))
	}
}

func TestTrainMinCountFiltering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinCount = 3
	cfg.Epochs = 1
	sents := [][]string{
		{"common", "common", "rare"},
		{"common", "common", "other"},
	}
	m, err := Train(context.Background(), sents, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, ok := m.Vector("rare"); ok {
		t.Fatal("word below MinCount was embedded")
	}
	if _, ok := m.Vector("common"); !ok {
		t.Fatal("word above MinCount missing")
	}
}

func TestTrainEmptyInput(t *testing.T) {
	if _, err := Train(context.Background(), nil, DefaultConfig()); err == nil {
		t.Fatal("Train(nil) = nil error, want error")
	}
	cfg := DefaultConfig()
	cfg.MinCount = 100
	if _, err := Train(context.Background(), [][]string{{"a", "b"}}, cfg); err == nil {
		t.Fatal("Train with everything filtered = nil error, want error")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Dim: 0, Epochs: 1},
		{Dim: 8, Epochs: 0},
		{Dim: -1, Epochs: 1},
	}
	for i, cfg := range bad {
		if _, err := Train(context.Background(), [][]string{{"a", "b"}}, cfg); err == nil {
			t.Errorf("case %d: Train accepted invalid config %+v", i, cfg)
		} else if !strings.Contains(err.Error(), "word2vec:") {
			t.Errorf("case %d: error %v lacks package prefix", i, err)
		}
	}
}

func TestUnigramTableCoversVocab(t *testing.T) {
	words := []string{"a", "b", "c"}
	counts := map[string]int64{"a": 100, "b": 10, "c": 1}
	table := buildUnigramTable(words, counts, 1000)
	seen := map[int32]int{}
	for _, id := range table {
		seen[id]++
	}
	for i := range words {
		if seen[int32(i)] == 0 {
			t.Fatalf("word %d missing from unigram table", i)
		}
	}
	if seen[0] <= seen[2] {
		t.Fatalf("frequent word should dominate table: a=%d c=%d", seen[0], seen[2])
	}
}

func TestSigmoidTable(t *testing.T) {
	s := newSigmoidTable()
	cases := []struct{ x, want float64 }{
		{-100, 0}, {100, 1}, {0, 0.5},
	}
	for _, tc := range cases {
		got := float64(s.at(tc.x))
		if math.Abs(got-tc.want) > 0.01 {
			t.Errorf("sigmoid(%f) = %f, want ~%f", tc.x, got, tc.want)
		}
	}
	// Monotone non-decreasing over the table range.
	prev := float64(-1)
	for x := -7.0; x <= 7.0; x += 0.05 {
		v := float64(s.at(x))
		if v < prev-1e-6 {
			t.Fatalf("sigmoid not monotone at %f: %f < %f", x, v, prev)
		}
		prev = v
	}
}
