// Package cmd_test builds the real binaries and drives them end to end:
// shoal-gen writes a corpus, shoal-build turns it into a taxonomy, the
// artifacts round-trip through the store formats, and shoal-serve serves
// and refreshes a taxonomy until it is signaled to stop.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"shoal"
	"shoal/internal/serve"
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
		"recomputedRows=", "candidates=", "retired="} {
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

// syncBuffer collects a running child's output for the test to poll.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeRefresh runs shoal-serve -refresh over the curated corpus:
// the refresh loop steps the daily pipeline and swaps each build in,
// /api/stats reports the swaps and the serving build's delta, and
// SIGTERM drains the server to a clean exit.
func TestServeRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short")
	}
	bin := buildTool(t, t.TempDir(), "shoal-serve")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var out syncBuffer
	cmd := exec.Command(bin, "-addr", addr, "-refresh", "100ms")
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill()

	const swapped = "refresh: swapped build #1 "
	for deadline := time.Now().Add(2 * time.Minute); !strings.Contains(out.String(), swapped); {
		select {
		case err := <-exited:
			t.Fatalf("shoal-serve exited before its first swap: %v\n%s", err, out.String())
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q line within 2m:\n%s", swapped, out.String())
		}
	}
	for _, tok := range []string{"ingest=", "stability=", "dirty-items=", "dense-fallback="} {
		if !strings.Contains(out.String(), tok) {
			t.Fatalf("refresh log lacks %s:\n%s", tok, out.String())
		}
	}

	resp, err := http.Get("http://" + addr + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats serve.Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/api/stats: status %d: %v", resp.StatusCode, err)
	}
	if stats.Swaps < 1 || stats.Delta == nil {
		t.Fatalf("/api/stats: swaps=%d delta=%+v, want swaps >= 1 and a delta", stats.Swaps, stats.Delta)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("shoal-serve exited with %v after SIGTERM:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("shoal-serve still running 30s after SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Fatalf("no clean shutdown reported:\n%s", out.String())
	}
}
