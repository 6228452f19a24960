//go:build !race

package taxonomy

// raceEnabled mirrors the word2vec pattern: allocation assertions are
// meaningless under the race detector (sync.Pool drops items randomly
// there to surface races).
const raceEnabled = false
