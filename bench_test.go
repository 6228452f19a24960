// Benchmarks regenerating the paper's evaluation, one per experiment id
// (internal/experiments). Custom metrics carry the experiment's headline
// number (precision, lift, modularity, …) so `go test -bench` output alone
// shows whether the paper's shape holds. cmd/shoal-bench prints the full
// tables.
package shoal_test

import (
	"context"
	"strconv"
	"testing"

	"shoal"
	"shoal/internal/abtest"
	"shoal/internal/benchjson"
	"shoal/internal/bipartite"
	"shoal/internal/catcorr"
	"shoal/internal/core"
	"shoal/internal/entitygraph"
	"shoal/internal/eval"
	"shoal/internal/experiments"
	"shoal/internal/hac"
	"shoal/internal/model"
	"shoal/internal/modularity"
	"shoal/internal/phac"
	"shoal/internal/recommend"
	"shoal/internal/synth"
	"shoal/internal/textutil"
	"shoal/internal/word2vec"
)

// fixedWorld returns benchjson's bench fixture, the world the
// BENCH_*.json substrate suite times: the fixed benchmark corpus, a full
// pipeline build over it, its click window and its entity sizes.
func fixedWorld(b *testing.B) (*core.Build, *bipartite.Graph, []int) {
	b.Helper()
	bd, clicks, sizes, err := benchjson.FixedWorld()
	if err != nil {
		b.Fatal(err)
	}
	return bd, clicks, sizes
}

// BenchmarkE1Precision regenerates §3's placement-precision evaluation
// (paper: 98% over 1000 topics × 100 items).
func BenchmarkE1Precision(b *testing.B) {
	bd, _, _ := fixedWorld(b)
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Precision(bd.Taxonomy, bd.Corpus, eval.PrecisionConfig{
			SampleTopics: 1000, ItemsPerTopic: 100, MinTopicItems: 3,
			RootTopicsOnly: true, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Precision
	}
	b.ReportMetric(last, "precision")
}

// BenchmarkE2ABTest regenerates §3's online A/B simulation (paper: +5% CTR).
func BenchmarkE2ABTest(b *testing.B) {
	bd, _, _ := fixedWorld(b)
	ctl, err := recommend.NewCategoryRecommender(bd.Corpus)
	if err != nil {
		b.Fatal(err)
	}
	exp, err := recommend.NewTopicRecommender(bd.Corpus, bd.Taxonomy)
	if err != nil {
		b.Fatal(err)
	}
	cfg := abtest.DefaultConfig()
	cfg.Users = 50_000
	var lift float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := abtest.Run(bd.Corpus, ctl, exp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lift = res.Lift
	}
	b.ReportMetric(lift, "lift")
}

// BenchmarkE3Modularity regenerates §2.2's quality metric (paper: > 0.3).
func BenchmarkE3Modularity(b *testing.B) {
	bd, _, _ := fixedWorld(b)
	b.ReportAllocs()
	labels := bd.Dendrogram.CutAt(0.12)
	var q float64
	for i := 0; i < b.N; i++ {
		var err error
		q, err = modularity.Compute(bd.Graph, labels)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(q, "modularity")
}

// BenchmarkE4Scaling regenerates §2.2's scalability comparison: sequential
// HAC vs Parallel HAC (paper: 200M entities in 4h on a cluster; the shape
// that reproduces is far fewer, far wider rounds).
func BenchmarkE4Scaling(b *testing.B) {
	bd, _, sizes := fixedWorld(b)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hac.Cluster(bd.Graph, sizes, hac.Config{StopThreshold: 0.12}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := phac.Cluster(context.Background(), bd.Graph, sizes, phac.Config{
				StopThreshold: 0.12, DiffusionRounds: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5Diffusion regenerates the §2.2 iteration/parallelism
// trade-off (paper: fewer iterations ⇒ more local maximal edges; r=2).
func BenchmarkE5Diffusion(b *testing.B) {
	bd, _, _ := fixedWorld(b)
	for _, r := range []int{0, 1, 2, 4} {
		b.Run("r"+strconv.Itoa(r), func(b *testing.B) {
			b.ReportAllocs()
			var selected int
			for i := 0; i < b.N; i++ {
				sel, err := phac.Diffuse(bd.Graph, r, 0.12)
				if err != nil {
					b.Fatal(err)
				}
				selected = len(sel)
			}
			b.ReportMetric(float64(selected), "local-max-edges")
		})
	}
}

// BenchmarkE6Alpha regenerates the §2.1 blend ablation (paper: α = 0.7).
func BenchmarkE6Alpha(b *testing.B) {
	bd, clicks, sizes := fixedWorld(b)
	for _, alpha := range []float64{0, 0.7, 1} {
		b.Run("alpha"+strconv.FormatFloat(alpha, 'f', 1, 64), func(b *testing.B) {
			var nmi float64
			for i := 0; i < b.N; i++ {
				gcfg := entitygraph.DefaultConfig()
				gcfg.Alpha = alpha
				gcfg.MinSimilarity = 0.25
				res, err := entitygraph.Build(context.Background(), bd.Entities, clicks, bd.Embeddings, gcfg)
				if err != nil {
					b.Fatal(err)
				}
				cres, err := phac.Cluster(context.Background(), res.Graph, sizes, phac.Config{StopThreshold: 0.12, DiffusionRounds: 2})
				if err != nil {
					b.Fatal(err)
				}
				truth := make([]model.ScenarioID, len(bd.Entities.Entities))
				for j := range truth {
					truth[j] = bd.Entities.Entities[j].Scenario
				}
				part, err := eval.LabelsPartition(cres.Dendrogram.CutAt(0.12), truth)
				if err != nil {
					b.Fatal(err)
				}
				nmi = part.NMI()
			}
			b.ReportMetric(nmi, "NMI")
		})
	}
}

// BenchmarkE7CatCorr regenerates the §2.4 correlation mining at the
// paper's threshold (Sc > 10).
func BenchmarkE7CatCorr(b *testing.B) {
	bd, _, _ := fixedWorld(b)
	var pairs int
	for i := 0; i < b.N; i++ {
		g, err := catcorr.Mine(context.Background(), bd.Taxonomy, catcorr.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		pairs = len(g.Pairs())
	}
	b.ReportMetric(float64(pairs), "pairs")
}

// BenchmarkE8Linkage regenerates the Eq. 4 linkage ablation (extension).
func BenchmarkE8Linkage(b *testing.B) {
	bd, _, sizes := fixedWorld(b)
	for _, linkage := range []phac.Linkage{
		phac.LinkageSqrtSize, phac.LinkageUnweighted, phac.LinkageSizeProportional,
	} {
		b.Run(linkage.String(), func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				res, err := phac.Cluster(context.Background(), bd.Graph, sizes, phac.Config{
					StopThreshold: 0.12, DiffusionRounds: 2, Linkage: linkage,
				})
				if err != nil {
					b.Fatal(err)
				}
				q, err = modularity.Compute(bd.Graph, res.Dendrogram.CutAt(0.12))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(q, "modularity")
		})
	}
}

// BenchmarkE9BSP regenerates the ODPS-substitution check: the diffusion
// protocol as a Pregel vertex program must select exactly what
// phac.Diffuse selects, or E9BSP returns an error. Each iteration is the
// whole experiment, corpus and build included.
func BenchmarkE9BSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9BSP(experiments.Small, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF3Figure replays the paper's Fig. 3 worked example.
func BenchmarkF3Figure(b *testing.B) {
	g := experiments.Figure3Graph()
	var selected int
	for i := 0; i < b.N; i++ {
		sel, err := phac.Diffuse(g, 2, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		selected = len(sel)
	}
	if selected != 2 {
		b.Fatalf("Fig. 3 selected %d edges, want 2 (AB and EF)", selected)
	}
}

// --- substrate micro-benchmarks -------------------------------------

// BenchmarkSubstrate runs the BENCH_*.json substrate suite
// (benchjson.NewSuite) under go test -bench, one sub-benchmark per timed
// entry under its benchjson name. shoal-bench -benchjson times the same
// entries best of three and adds the paired ratios.
func BenchmarkSubstrate(b *testing.B) {
	s, err := benchjson.NewSuite()
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range s.Benches {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.Op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchPipeline(b *testing.B, sequential bool) {
	gen := synth.DefaultConfig()
	gen.Scenarios = 12
	gen.ItemsPerScenario = 80
	gen.QueriesPerScenario = 20
	gen.NoiseItems = 60
	gen.HeadQueries = 10
	corpus, err := synth.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	// Default word2vec settings (3 epochs, dim 32): the embedding stage is
	// heavy enough that the concurrent schedule can hide click-graph and
	// entity formation behind it.
	cfg := shoal.DefaultConfig()
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12, 0.3}
	cfg.Sequential = sequential
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shoal.Build(corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSequential runs the pipeline one stage at a time
// (Config.Sequential).
func BenchmarkPipelineSequential(b *testing.B) { benchPipeline(b, true) }

// BenchmarkPipelineConcurrent overlaps the stages that read none of each
// other's output (word2vec next to click-graph/entities). Output is identical to the
// sequential schedule; only wall-clock differs.
func BenchmarkPipelineConcurrent(b *testing.B) { benchPipeline(b, false) }

func BenchmarkWord2VecTrain(b *testing.B) {
	bd, _, _ := fixedWorld(b)
	sentences := make([][]string, 0, len(bd.Corpus.Items))
	for i := range bd.Corpus.Items {
		sentences = append(sentences, textutil.Tokenize(bd.Corpus.Items[i].Title))
	}
	cfg := word2vec.DefaultConfig()
	cfg.Epochs = 1
	cfg.Dim = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := word2vec.Train(context.Background(), sentences, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDailyRebuild measures one day's full sliding-window rebuild
// (§3's production refresh) from scratch: a one-shot build over a 7-day
// window, word2vec and entity formation included. The daily pipeline's
// patched rebuild is shoal-bench's incremental-rebuild.
func BenchmarkDailyRebuild(b *testing.B) {
	gen := synth.DefaultConfig()
	gen.Scenarios = 8
	gen.ItemsPerScenario = 60
	gen.QueriesPerScenario = 15
	gen.NoiseItems = 30
	gen.HeadQueries = 6
	gen.Days = 7
	corpus, err := synth.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Word2Vec.Epochs = 1
	cfg.Word2Vec.MinCount = 1
	cfg.HAC.StopThreshold = 0.12
	cfg.Taxonomy.Levels = []float64{0.12, 0.3}
	window := bipartite.New(cfg.WindowDays)
	if err := window.AddAll(corpus.Clicks); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunWithClicks(corpus, window, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
