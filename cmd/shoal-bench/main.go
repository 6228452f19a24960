// Command shoal-bench regenerates the paper's evaluation: one table per
// experiment id (see internal/experiments and PAPER.md).
//
// Usage:
//
//	shoal-bench                      # run everything at medium scale
//	shoal-bench -run E1,E3 -scale small
//	shoal-bench -run E2 -users 1000000
//	shoal-bench -benchjson BENCH_3.json             # substrate benchmarks -> JSON
//	shoal-bench -benchgate BENCH_2.json,BENCH_3.json # regression gate
//
// -benchjson runs the graph-substrate micro-benchmarks at a fixed larger
// synthetic scale and writes ns/op + allocs/op per benchmark, so each PR
// can record a comparable BENCH_<pr>.json trajectory point. -benchgate
// compares two such files and exits non-zero when any shared benchmark's
// ns/op regressed past -gate-threshold — the CI regression gate.
package main

import (
	"flag"
	"log"
	"os"
	"strconv"
	"strings"

	"shoal/internal/benchjson"
	"shoal/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoal-bench: ")

	var (
		run       = flag.String("run", "all", "comma-separated experiment ids (E1..E11,F3) or 'all'")
		scale     = flag.String("scale", "medium", "corpus scale: small|medium|large")
		users     = flag.Int("users", 200_000, "simulated users for E2")
		seeds     = flag.String("seeds", "1,2,3", "comma-separated corpus seeds")
		noFail    = flag.Bool("keep-going", true, "continue after a failing experiment")
		benchJSON = flag.String("benchjson", "", "run substrate benchmarks at a fixed scale and write JSON results to this path")
		benchGate = flag.String("benchgate", "", "compare two benchjson files OLD,NEW and fail on ns/op regressions in shared benchmarks")
		gateTol   = flag.Float64("gate-threshold", benchjson.DefaultThreshold, "fractional ns/op regression tolerated by -benchgate; above the default the > 1 ratio ceiling widens to 1 + threshold")
	)
	flag.Parse()

	if *benchJSON != "" {
		if err := benchjson.WriteFile(*benchJSON); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *benchJSON)
		return
	}
	if *benchGate != "" {
		parts := strings.Split(*benchGate, ",")
		if len(parts) != 2 {
			log.Fatalf("-benchgate wants OLD.json,NEW.json, got %q", *benchGate)
		}
		regs, err := benchjson.Gate(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), *gateTol)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range regs {
			log.Printf("regression: %s", r)
		}
		if len(regs) > 0 {
			os.Exit(1)
		}
		log.Printf("bench gate passed: %s vs %s within %+.0f%%", parts[0], parts[1], 100**gateTol)
		return
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	runner := experiments.DefaultRunner(sc)
	runner.ABUsers = *users
	runner.Seeds = runner.Seeds[:0]
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			log.Fatalf("bad seed %q: %v", s, err)
		}
		runner.Seeds = append(runner.Seeds, v)
	}

	ids := runner.IDs()
	if *run != "all" {
		ids = strings.Split(strings.ToUpper(*run), ",")
	}
	exit := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		tab, err := runner.Run(id)
		if err != nil {
			log.Printf("%s failed: %v", id, err)
			exit = 1
			if !*noFail {
				os.Exit(1)
			}
			continue
		}
		if err := tab.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	os.Exit(exit)
}
