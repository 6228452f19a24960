package word2vec

// dotSix is dotSixGo in SSE2 (kernel_amd64.s), bit for bit.
//
//go:noescape
func dotSix(vi []float32, vo *[negative + 1][]float32, d *[negative + 1]float64)

// updateSix is updateSixGo in SSE (kernel_amd64.s), bit for bit.
//
//go:noescape
func updateSix(vi []float32, vo *[negative + 1][]float32, coef *[negative + 1]float32)
