// Command benchmark measures SHOAL's one loop from the outside: a day of
// clicks enters the 7-day window, the window becomes a taxonomy, and the
// taxonomy is hot-swapped under request traffic. One invocation runs one
// workload and prints every metric by name with its unit, counts the
// operations attempted and failed, verifies the program's outputs and
// exits non-zero when a check fails. See README.md.
//
//	bash benchmark/run.sh --workload lowchurn --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh --workload highchurn --seed 1 --seconds 30 --trace 1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	cancel()
	os.Exit(code)
}

// realMain runs one workload: the human-readable table goes to stderr,
// the result line to stdout. It returns the exit code.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: lowchurn, highchurn or bigcorpus")
		seed     = fs.Uint64("seed", 1, "seed of the generated catalog, click stream and request stream")
		seconds  = fs.Float64("seconds", 30, "how long the interleaved rounds measure")
		traced   = fs.Int("trace", 0, "1: traced run (layer-by-layer replay, per-layer metrics); 0: end-to-end metrics")
		traceOut = fs.String("trace-out", "", "Chrome trace file of a traced run (default out/trace-<workload>-<seed>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload lowchurn|highchurn|bigcorpus, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	opt := options{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, traceOut: *traceOut}
	if opt.traced && opt.traceOut == "" {
		opt.traceOut = filepath.Join("out", fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := os.MkdirAll("out", 0o755); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return execute(ctx, opt, stdout, stderr)
}

// execute runs opt and prints its result line; the exit code is
// non-zero when the run could not finish or an output check failed.
func execute(ctx context.Context, opt options, stdout, stderr io.Writer) int {
	rep, err := run(ctx, opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := rep.resultLine()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !rep.correct() {
		return 1
	}
	return 0
}
