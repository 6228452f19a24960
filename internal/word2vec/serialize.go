package word2vec

import (
	"encoding/gob"
	"fmt"
	"io"
)

// modelWire is the gob wire form of a Model. Production systems train
// embeddings offline and ship them to the taxonomy builder; Save/Load is
// that hand-off.
type modelWire struct {
	Dim   int
	Words []string
	Vecs  []float32
}

// Save writes the model in gob encoding.
func (m *Model) Save(w io.Writer) error {
	wire := modelWire{Dim: m.dim, Words: m.words, Vecs: m.vecs}
	if err := gob.NewEncoder(w).Encode(&wire); err != nil {
		return fmt.Errorf("word2vec: encoding model: %w", err)
	}
	return nil
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("word2vec: decoding model: %w", err)
	}
	if wire.Dim <= 0 {
		return nil, fmt.Errorf("word2vec: decoded model has dimension %d", wire.Dim)
	}
	// Divide rather than multiply: len(Words)*Dim can overflow to match.
	if len(wire.Vecs)%wire.Dim != 0 || len(wire.Vecs)/wire.Dim != len(wire.Words) {
		return nil, fmt.Errorf("word2vec: decoded model has %d floats for %d words of dim %d",
			len(wire.Vecs), len(wire.Words), wire.Dim)
	}
	m := &Model{
		dim:   wire.Dim,
		words: wire.Words,
		vecs:  wire.Vecs,
		ids:   make(map[string]int, len(wire.Words)),
	}
	for i, w := range wire.Words {
		if _, dup := m.ids[w]; dup {
			return nil, fmt.Errorf("word2vec: decoded model has duplicate word %q", w)
		}
		m.ids[w] = i
	}
	return m, nil
}
