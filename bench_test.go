// Benchmarks regenerating the paper's evaluation, one per experiment id
// (internal/experiments). Custom metrics carry the experiment's headline
// number (precision, lift, modularity, …) so `go test -bench` output alone
// shows whether the paper's shape holds. cmd/shoal-bench prints the full
// tables.
package shoal_test

import (
	"context"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"

	"shoal"
	"shoal/internal/abtest"
	"shoal/internal/benchjson"
	"shoal/internal/bipartite"
	"shoal/internal/bm25"
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
	"shoal/internal/serve"
	"shoal/internal/synth"
	"shoal/internal/textutil"
	"shoal/internal/word2vec"
)

// benchWorld is the shared fixture: the fixed benchmark corpus and full
// pipeline build from benchjson.FixedWorld — the same fixture the
// BENCH_*.json substrate suite uses, built once per process and
// optionally cached on disk via SHOAL_BENCH_FIXTURE so CI's bench smoke
// pass and the benchjson re-run share one build.
type benchWorld struct {
	corpus *model.Corpus
	build  *core.Build
	sizes  []int
}

var (
	worldOnce sync.Once
	world     *benchWorld
)

func getWorld(b *testing.B) *benchWorld {
	b.Helper()
	worldOnce.Do(func() {
		bd, _, sizes, err := benchjson.FixedWorld()
		if err != nil {
			panic(err)
		}
		world = &benchWorld{corpus: bd.Corpus, build: bd, sizes: sizes}
	})
	return world
}

// BenchmarkE1Precision regenerates §3's placement-precision evaluation
// (paper: 98% over 1000 topics × 100 items).
func BenchmarkE1Precision(b *testing.B) {
	w := getWorld(b)
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Precision(w.build.Taxonomy, w.corpus, eval.PrecisionConfig{
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
	w := getWorld(b)
	ctl, err := recommend.NewCategoryRecommender(w.corpus)
	if err != nil {
		b.Fatal(err)
	}
	exp, err := recommend.NewTopicRecommender(w.corpus, w.build.Taxonomy)
	if err != nil {
		b.Fatal(err)
	}
	cfg := abtest.DefaultConfig()
	cfg.Users = 50_000
	var lift float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := abtest.Run(w.corpus, ctl, exp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lift = res.Lift
	}
	b.ReportMetric(lift, "lift")
}

// BenchmarkE3Modularity regenerates §2.2's quality metric (paper: > 0.3).
func BenchmarkE3Modularity(b *testing.B) {
	w := getWorld(b)
	b.ReportAllocs()
	labels := w.build.Dendrogram.CutAt(0.12)
	var q float64
	for i := 0; i < b.N; i++ {
		var err error
		q, err = modularity.Compute(w.build.Graph, labels)
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
	w := getWorld(b)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hac.Cluster(w.build.Graph, w.sizes, hac.Config{StopThreshold: 0.12}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := phac.Cluster(context.Background(), w.build.Graph, w.sizes, phac.Config{
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
	w := getWorld(b)
	for _, r := range []int{0, 1, 2, 4} {
		b.Run("r"+strconv.Itoa(r), func(b *testing.B) {
			b.ReportAllocs()
			var selected int
			for i := 0; i < b.N; i++ {
				sel, err := phac.Diffuse(w.build.Graph, r, 0.12)
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
	w := getWorld(b)
	clicks := bipartite.New(7)
	if err := clicks.AddAll(w.corpus.Clicks); err != nil {
		b.Fatal(err)
	}
	for _, alpha := range []float64{0, 0.7, 1} {
		b.Run("alpha"+strconv.FormatFloat(alpha, 'f', 1, 64), func(b *testing.B) {
			var nmi float64
			for i := 0; i < b.N; i++ {
				gcfg := entitygraph.DefaultConfig()
				gcfg.Alpha = alpha
				gcfg.MinSimilarity = 0.25
				res, err := entitygraph.Build(context.Background(), w.build.Entities, clicks, w.build.Embeddings, gcfg)
				if err != nil {
					b.Fatal(err)
				}
				cres, err := phac.Cluster(context.Background(), res.Graph, w.sizes, phac.Config{StopThreshold: 0.12, DiffusionRounds: 2})
				if err != nil {
					b.Fatal(err)
				}
				truth := make([]model.ScenarioID, len(w.build.Entities.Entities))
				for j := range truth {
					truth[j] = w.build.Entities.Entities[j].Scenario
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
	w := getWorld(b)
	var pairs int
	for i := 0; i < b.N; i++ {
		g, err := catcorr.Mine(context.Background(), w.build.Taxonomy, catcorr.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		pairs = len(g.Pairs())
	}
	b.ReportMetric(float64(pairs), "pairs")
}

// BenchmarkE8Linkage regenerates the Eq. 4 linkage ablation (extension).
func BenchmarkE8Linkage(b *testing.B) {
	w := getWorld(b)
	for _, linkage := range []phac.Linkage{
		phac.LinkageSqrtSize, phac.LinkageUnweighted, phac.LinkageSizeProportional,
	} {
		b.Run(linkage.String(), func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				res, err := phac.Cluster(context.Background(), w.build.Graph, w.sizes, phac.Config{
					StopThreshold: 0.12, DiffusionRounds: 2, Linkage: linkage,
				})
				if err != nil {
					b.Fatal(err)
				}
				q, err = modularity.Compute(w.build.Graph, res.Dendrogram.CutAt(0.12))
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

func BenchmarkEntityGraphBuild(b *testing.B) {
	w := getWorld(b)
	b.ReportAllocs()
	clicks := bipartite.New(7)
	if err := clicks.AddAll(w.corpus.Clicks); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := entitygraph.Build(context.Background(), w.build.Entities, clicks, w.build.Embeddings, entitygraph.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWord2VecTrain(b *testing.B) {
	w := getWorld(b)
	sentences := make([][]string, 0, len(w.corpus.Items))
	for i := range w.corpus.Items {
		sentences = append(sentences, textutil.Tokenize(w.corpus.Items[i].Title))
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

func BenchmarkBM25TopK(b *testing.B) {
	w := getWorld(b)
	b.ReportAllocs()
	docs := make([][]string, 0, len(w.corpus.Items))
	for i := range w.corpus.Items {
		docs = append(docs, textutil.Tokenize(w.corpus.Items[i].Title))
	}
	idx, err := bm25.Build(docs, bm25.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	query := textutil.Tokenize(w.corpus.Queries[0].Text)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.TopK(query, 10)
	}
}

// BenchmarkServeSearch measures the online serving path (§1: "millions of
// searches per day"): one query→topic search through the HTTP handler.
func BenchmarkServeSearch(b *testing.B) {
	w := getWorld(b)
	b.ReportAllocs()
	h, err := serve.NewHandler(w.build)
	if err != nil {
		b.Fatal(err)
	}
	probe := w.corpus.Queries[0].Text
	req := httptest.NewRequest("GET", "/api/search?q="+url.QueryEscape(probe)+"&k=5", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkServeStats measures the /api/stats path, which now folds the
// per-route latency digests into the build facts on every request.
func BenchmarkServeStats(b *testing.B) {
	w := getWorld(b)
	b.ReportAllocs()
	h, err := serve.NewHandler(w.build)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/api/stats", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
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
