package word2vec

import (
	"bytes"
	"context"
	"encoding/gob"
	"strconv"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := trainTestModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != m.Dim() || got.Words() != m.Words() {
		t.Fatalf("shape changed: dim %d->%d words %d->%d", m.Dim(), got.Dim(), m.Words(), got.Words())
	}
	// Cosines must be identical.
	a, err := m.Cosine("beach", "swim")
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Cosine("beach", "swim")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cosine changed across round trip: %f vs %f", a, b)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not gob")); err == nil {
		t.Fatal("garbage accepted")
	}
	encode := func(w modelWire) *bytes.Buffer {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if _, err := Load(encode(modelWire{Dim: 0})); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := Load(encode(modelWire{Dim: 4, Words: []string{"a"}, Vecs: make([]float32, 3)})); err == nil {
		t.Fatal("mismatched vector length accepted")
	}
	// Four words of this dim hold 1 << strconv.IntSize floats, which a
	// multiplying size check would wrap to the empty Vecs at either int
	// width.
	if _, err := Load(encode(modelWire{Dim: 1 << (strconv.IntSize - 2), Words: []string{"a", "b", "c", "d"}})); err == nil {
		t.Fatal("dim whose size check overflows accepted")
	}
	if _, err := Load(encode(modelWire{Dim: 1, Words: []string{"a", "a"}, Vecs: make([]float32, 2)})); err == nil {
		t.Fatal("duplicate words accepted")
	}
}

// FuzzLoad feeds arbitrary bytes to Load: it must never panic, and every
// word of a model it accepts must answer Vector and NormVector with a
// Dim-long vector.
func FuzzLoad(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Dim, cfg.Epochs = 4, 1
	m, err := Train(context.Background(), syntheticSentences(20, 3), cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("not gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, w := range m.words {
			v, ok := m.Vector(w)
			if !ok || len(v) != m.Dim() {
				t.Fatalf("Vector(%q) = %d floats, %v; want %d, true", w, len(v), ok, m.Dim())
			}
			if n, ok := m.NormVector(w); !ok || len(n) != m.Dim() {
				t.Fatalf("NormVector(%q) = %d floats, %v; want %d, true", w, len(n), ok, m.Dim())
			}
		}
	})
}
