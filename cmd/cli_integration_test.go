// Package cmd_test builds the real binaries and drives them end to end:
// shoal-gen writes a corpus, shoal-build turns it into a taxonomy, and the
// artifacts round-trip through the store formats.
package cmd_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"shoal"
	"shoal/internal/store"
)

// buildTool compiles one command into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./"+name)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Tests run in cmd/; the commands live here.
	return wd
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, buf.String())
	}
	return buf.String()
}

func loadTaxonomy(path string) (*shoal.Taxonomy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return shoal.LoadTaxonomy(f)
}

func TestGenBuildPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short")
	}
	dir := t.TempDir()
	gen := buildTool(t, dir, "shoal-gen")
	build := buildTool(t, dir, "shoal-build")

	corpusPath := filepath.Join(dir, "corpus.json.gz")
	out := run(t, gen, "-out", corpusPath, "-scenarios", "6", "-items", "40", "-queries", "10", "-noise", "15")
	if !strings.Contains(out, "wrote") {
		t.Fatalf("shoal-gen output: %q", out)
	}
	corpus, err := store.LoadCorpus(corpusPath)
	if err != nil {
		t.Fatalf("generated corpus unreadable: %v", err)
	}
	if len(corpus.Items) != 6*40+15 {
		t.Fatalf("items = %d, want %d", len(corpus.Items), 6*40+15)
	}

	taxPath := filepath.Join(dir, "tax.gob")
	out = run(t, build, "-corpus", corpusPath, "-out", taxPath, "-stop", "0.12", "-v")
	if !strings.Contains(out, "taxonomy:") {
		t.Fatalf("shoal-build output: %q", out)
	}
	// -v breaks the post-clustering stages into their sub-stage spans
	// with the counts that size them, and sums the clustering's round
	// counts onto its stage line.
	for _, want := range []string{"distinctQueries=", "candidatePairs=", "tokens=",
		"recomputedRows=", "candidates="} {
		if !strings.Contains(out, want) {
			t.Fatalf("shoal-build -v did not report %s: %q", want, out)
		}
	}
	tx, err := loadTaxonomy(taxPath)
	if err != nil {
		t.Fatalf("built taxonomy unreadable: %v", err)
	}
	if len(tx.Topics) == 0 {
		t.Fatal("built taxonomy has no topics")
	}
	if len(tx.ItemTopic) != len(corpus.Items) {
		t.Fatalf("taxonomy covers %d items, corpus has %d", len(tx.ItemTopic), len(corpus.Items))
	}

	// The one identity claim the CLI still makes: the worker count — the
	// entity graph splits candidate rows and scoring by GOMAXPROCS, the
	// one width left that varies a build's execution — never changes the
	// output file, embeddings included.
	var ref []byte
	for _, procs := range []string{"1", "3"} {
		path := filepath.Join(dir, "tax-p"+procs+".gob")
		t.Setenv("GOMAXPROCS", procs) // read by the child's runtime at start; this process has read its own
		run(t, build, "-corpus", corpusPath, "-out", path, "-stop", "0.12")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
		} else if !bytes.Equal(ref, data) {
			t.Fatal("GOMAXPROCS=3 changed the built taxonomy file")
		}
	}

	// The day-by-day replay patches each day's rebuild from the previous
	// day's and saves the file a one-shot build of the final window saves;
	// its first day has no previous build to patch.
	incPath := filepath.Join(dir, "tax-incremental.gob")
	out = run(t, build, "-corpus", corpusPath, "-out", incPath, "-stop", "0.12", "-incremental", "-v")
	inc, err := os.ReadFile(incPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, inc) {
		t.Fatal("shoal-build -incremental saved a different taxonomy file than shoal-build")
	}
	firstDay := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "day ") {
			firstDay = line
			break
		}
	}
	if !strings.Contains(firstDay, "dense-fallback-reason=no-state") {
		t.Fatalf("first -incremental day line %q does not report a no-state fallback:\n%s", firstDay, out)
	}
}

func TestGenCurated(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short")
	}
	dir := t.TempDir()
	gen := buildTool(t, dir, "shoal-gen")
	corpusPath := filepath.Join(dir, "beach.json")
	run(t, gen, "-curated", "-out", corpusPath)
	corpus, err := store.LoadCorpus(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Scenarios) != 3 {
		t.Fatalf("curated scenarios = %d, want 3", len(corpus.Scenarios))
	}
}
