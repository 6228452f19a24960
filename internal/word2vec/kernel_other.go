//go:build !amd64

package word2vec

func dotSix(vi []float32, vo *[negative + 1][]float32, d *[negative + 1]float64) {
	dotSixGo(vi, vo, d)
}

func updateSix(vi []float32, vo *[negative + 1][]float32, coef *[negative + 1]float32) {
	updateSixGo(vi, vo, coef)
}
