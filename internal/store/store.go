// Package store persists corpora to disk. JSON is the
// interchange format between the cmd tools (shoal-gen → shoal-build →
// shoal-explore); gob is offered for faster reloads of large corpora.
package store

import (
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"shoal/internal/model"
)

// SaveCorpus writes a corpus to path. The encoding follows the extension:
// .json, .json.gz, or .gob (gob+gzip for anything else ending in .gz).
func SaveCorpus(c *model.Corpus, path string) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("store: refusing to save invalid corpus: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	var encErr error
	switch {
	case strings.Contains(filepath.Base(path), ".json"):
		enc := json.NewEncoder(w)
		encErr = enc.Encode(c)
	default:
		encErr = gob.NewEncoder(w).Encode(c)
	}
	if encErr != nil {
		return fmt.Errorf("store: encoding corpus: %w", encErr)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return f.Close()
}

// LoadCorpus reads a corpus written by SaveCorpus and validates it.
func LoadCorpus(path string) (*model.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	var c model.Corpus
	var decErr error
	switch {
	case strings.Contains(filepath.Base(path), ".json"):
		decErr = json.NewDecoder(r).Decode(&c)
	default:
		decErr = gob.NewDecoder(r).Decode(&c)
	}
	if decErr != nil {
		return nil, fmt.Errorf("store: decoding corpus: %w", decErr)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("store: loaded corpus invalid: %w", err)
	}
	return &c, nil
}
