package word2vec

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestSixKernelsMatchGo holds dotSix and updateSix (the assembly kernels
// on amd64) to dotSixGo and updateSixGo bit for bit, at every dimension
// from 1 to 40, so each pair loop, odd element and lane tail runs. The
// values mix ordinary magnitudes with ±0, subnormals and ±large (whose
// products overflow float32 to ±Inf and then NaN), and one case builds
// the −0 gradient: zero coefficients against rows of either sign make
// every product −0, which only a gradient summed from +0 turns into +0
// before it reaches a −0 center row.
func TestSixKernelsMatchGo(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	special := []float32{
		0, negZero,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400001), // subnormals
		1e30, -1e30, math.MaxFloat32, -math.MaxFloat32,
		1, -1, 0.5,
	}
	ordinary := func(rng *rand.Rand, _ int) float32 { return (rng.Float32() - 0.5) * 0.2 }
	mixed := func(rng *rand.Rand, _ int) float32 {
		if rng.IntN(2) == 0 {
			return special[rng.IntN(len(special))]
		}
		return (rng.Float32() - 0.5) * 8
	}
	fills := []struct {
		name string
		// center, row and coef return an element of vi, of vo[k] and
		// coef[k].
		center, row, coef func(rng *rand.Rand, k int) float32
		// zeroGrad marks the fill whose every gradient product is −0.
		zeroGrad bool
	}{
		{"ordinary", ordinary, ordinary,
			func(rng *rand.Rand, _ int) float32 { return (rng.Float32() - 0.5) * 0.05 }, false},
		{"special", mixed, mixed,
			func(rng *rand.Rand, _ int) float32 { return special[rng.IntN(len(special))] }, false},
		{"-0 gradient",
			func(*rand.Rand, int) float32 { return negZero },
			func(rng *rand.Rand, k int) float32 { // +0·(−x) and −0·(+x) are both −0
				if k == 0 {
					return -0.25 - rng.Float32()
				}
				return 0.25 + rng.Float32()
			},
			func(_ *rand.Rand, k int) float32 {
				if k == 0 {
					return 0
				}
				return negZero
			}, true},
	}
	for _, f := range fills {
		for dim := 1; dim <= 40; dim++ {
			for trial := uint64(0); trial < 8; trial++ {
				rng := rand.New(rand.NewPCG(trial, uint64(dim)))
				vi := make([]float32, dim)
				for i := range vi {
					vi[i] = f.center(rng, -1)
				}
				var vo [negative + 1][]float32
				var coef [negative + 1]float32
				for k := range vo {
					vo[k] = make([]float32, dim)
					for i := range vo[k] {
						vo[k][i] = f.row(rng, k)
					}
					coef[k] = f.coef(rng, k)
				}

				var got, want [negative + 1]float64
				dotSix(vi, &vo, &got)
				dotSixGo(vi, &vo, &want)
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%s, dim %d, trial %d: dot %d = %g (%#x), Go %g (%#x)", f.name, dim, trial,
							k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}

				wantVi := slices.Clone(vi)
				var wantVo [negative + 1][]float32
				for k := range vo {
					wantVo[k] = slices.Clone(vo[k])
				}
				updateSix(vi, &vo, &coef)
				updateSixGo(wantVi, &wantVo, &coef)
				same := func(what string, got, want []float32) {
					t.Helper()
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s, dim %d, trial %d: %s[%d] = %g (%#x), Go %g (%#x)", f.name, dim, trial,
								what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
				}
				same("vi", vi, wantVi)
				for k := range vo {
					same("vo"+string(rune('0'+k)), vo[k], wantVo[k])
				}
				if f.zeroGrad {
					for i, x := range vi {
						if math.Signbit(float64(x)) {
							t.Fatalf("dim %d, trial %d: vi[%d] kept −0", dim, trial, i)
						}
					}
				}
			}
		}
	}
}
