package store

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shoal/internal/bipartite"
	"shoal/internal/entitygraph"
	"shoal/internal/model"
	"shoal/internal/synth"
)

func TestSaveLoadRoundTrips(t *testing.T) {
	corpus := synth.Curated()
	dir := t.TempDir()
	for _, name := range []string{"c.json", "c.json.gz", "c.gob", "c.gob.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveCorpus(corpus, path); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := LoadCorpus(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !reflect.DeepEqual(corpus, got) {
			t.Fatalf("%s: round trip changed corpus", name)
		}
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	corpus := synth.Curated()
	dir := t.TempDir()
	plain := filepath.Join(dir, "c.json")
	zipped := filepath.Join(dir, "c.json.gz")
	if err := SaveCorpus(corpus, plain); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(corpus, zipped); err != nil {
		t.Fatal(err)
	}
	ps, err := os.Stat(plain)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := os.Stat(zipped)
	if err != nil {
		t.Fatal(err)
	}
	if zs.Size() >= ps.Size() {
		t.Fatalf("gzip file (%d) not smaller than plain (%d)", zs.Size(), ps.Size())
	}
}

func TestSaveRejectsInvalidCorpus(t *testing.T) {
	bad := &model.Corpus{Items: []model.Item{{ID: 7}}}
	if err := SaveCorpus(bad, filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Fatal("invalid corpus saved")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadCorpus(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	garbage := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(garbage, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(garbage); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	notGz := filepath.Join(dir, "bad.json.gz")
	if err := os.WriteFile(notGz, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(notGz); err == nil {
		t.Fatal("non-gzip .gz accepted")
	}
}

// FuzzLoadCorpus feeds arbitrary bytes to LoadCorpus under each of its
// four encodings, chosen by enc: it may not panic, and a corpus it
// accepts must get through the first things a build does with one — the
// text plane, the click window and entity formation — without panicking.
// The seeds are the curated corpus in all four encodings.
func FuzzLoadCorpus(f *testing.F) {
	names := []string{"c.json", "c.json.gz", "c.gob", "c.gob.gz"}
	dir := f.TempDir()
	for i, name := range names {
		path := filepath.Join(dir, name)
		if err := SaveCorpus(synth.Curated(), path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, enc uint8) {
		path := filepath.Join(t.TempDir(), names[int(enc)%len(names)])
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCorpus(path)
		if err != nil {
			return
		}
		c.Text()
		_ = bipartite.New(7).AddAll(c.Clicks) // an error is a rejection, not a failure
		_, _ = entitygraph.BuildEntities(context.Background(), c)
	})
}
