package entitygraph

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"shoal/internal/word2vec"
)

// Eq. 2 of the paper is a double sum over word-vector pairs:
//
//	Sc(u,v) = (1/(|Vu||Vv|)) Σ_w1 Σ_w2 (1/2 + cos(w1,w2)/2)
//
// The implementation factors it to 1/2 + dot(μu, μv)/2 with μ the mean of
// normalized vectors. These tests pin the algebraic equivalence.

// literalEq2 computes the paper's formula verbatim.
func literalEq2(emb *word2vec.Model, u, v []string) (float64, bool) {
	var sum float64
	pairs := 0
	known := func(toks []string) [][]float32 {
		var out [][]float32
		for _, t := range toks {
			if vec, ok := emb.NormVector(t); ok {
				out = append(out, vec)
			}
		}
		return out
	}
	vu, vv := known(u), known(v)
	if len(vu) == 0 || len(vv) == 0 {
		return 0, false
	}
	for _, a := range vu {
		for _, b := range vv {
			var dot float64
			for i := range a {
				dot += float64(a[i]) * float64(b[i])
			}
			sum += 0.5 + 0.5*dot
			pairs++
		}
	}
	return sum / float64(pairs), true
}

// factoredEq2 is the production path: mean normalized vectors + one dot.
func factoredEq2(emb *word2vec.Model, u, v []string) (float64, bool) {
	mu := meanNormVector(emb, u)
	mv := meanNormVector(emb, v)
	if mu == nil || mv == nil {
		return 0, false
	}
	return 0.5 + 0.5*dot(mu, mv), true
}

func trainTiny(t testing.TB) *word2vec.Model {
	t.Helper()
	sents := [][]string{
		{"beach", "dress", "swim", "sun"},
		{"swim", "sun", "sand", "beach"},
		{"boot", "snow", "ski", "glove"},
		{"ski", "glove", "ice", "boot"},
		{"beach", "sand", "sun", "swim"},
	}
	cfg := word2vec.DefaultConfig()
	cfg.Dim = 12
	cfg.Epochs = 3
	cfg.MinCount = 1
	m, err := word2vec.Train(context.Background(), sents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEq2FactoredMatchesLiteral(t *testing.T) {
	emb := trainTiny(t)
	cases := [][2][]string{
		{{"beach", "dress"}, {"swim", "sun"}},
		{{"beach"}, {"ski"}},
		{{"beach", "beach", "sand"}, {"snow", "glove", "ice", "boot"}},
		{{"sun", "unknownword", "swim"}, {"ski"}},
	}
	for _, tc := range cases {
		lit, lok := literalEq2(emb, tc[0], tc[1])
		fac, fok := factoredEq2(emb, tc[0], tc[1])
		if lok != fok {
			t.Fatalf("availability mismatch for %v", tc)
		}
		if !lok {
			continue
		}
		if math.Abs(lit-fac) > 1e-6 {
			t.Fatalf("Eq.2 mismatch for %v: literal=%.9f factored=%.9f", tc, lit, fac)
		}
	}
}

func TestEq2EquivalenceProperty(t *testing.T) {
	emb := trainTiny(t)
	vocabulary := []string{"beach", "dress", "swim", "sun", "sand", "boot", "snow", "ski", "glove", "ice", "zzz"}
	f := func(a, b []uint8) bool {
		pick := func(idx []uint8) []string {
			out := make([]string, 0, len(idx))
			for _, i := range idx {
				out = append(out, vocabulary[int(i)%len(vocabulary)])
			}
			return out
		}
		u, v := pick(a), pick(b)
		lit, lok := literalEq2(emb, u, v)
		fac, fok := factoredEq2(emb, u, v)
		if lok != fok {
			return false
		}
		if !lok {
			return true
		}
		// The vectors are float32: a word's similarity with itself reads up
		// to 1+2e-8 ("ice"), so the range gets the tolerance of the match.
		return math.Abs(lit-fac) < 1e-6 && fac >= -1e-6 && fac <= 1+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
