// Package shoal is the public API of the SHOAL reproduction: a large-scale
// hierarchical taxonomy built from search queries via graph-based query
// coalition (Li et al., PVLDB 12(12), 2019).
//
// SHOAL organizes items into a hierarchy of *topics* — conceptual shopping
// scenarios such as "trip to the beach" — instead of (and alongside) the
// rigid ontology category tree. Topics are mined from the query-item click
// graph with Parallel Hierarchical Agglomerative Clustering, tagged with
// representative queries, and used to correlate ontology categories.
//
// Quickstart:
//
//	corpus, _ := shoal.GenerateCorpus(shoal.DefaultCorpusConfig())
//	sys, _ := shoal.Build(corpus, shoal.DefaultConfig())
//	for _, hit := range sys.SearchTopics("beach trip", 3) {
//	    topic, _ := sys.Topic(hit.Topic)
//	    fmt.Println(topic.Description)
//	}
//
// The heavy lifting lives in internal packages; this package re-exports
// the domain types and wraps the pipeline with navigation helpers that
// mirror the paper's demo scenarios A–D (Fig. 5).
package shoal

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"shoal/internal/abtest"
	"shoal/internal/catcorr"
	"shoal/internal/core"
	"shoal/internal/model"
	"shoal/internal/phac"
	"shoal/internal/recommend"
	"shoal/internal/synth"
	"shoal/internal/taxonomy"
)

// Re-exported domain types. External importers use these through the
// facade; the internal packages are not importable directly.
type (
	// Corpus is the pipeline input: items, queries, categories, clicks.
	Corpus = model.Corpus
	// Item is a product listing.
	Item = model.Item
	// Query is a distinct normalized search query.
	Query = model.Query
	// Category is an ontology node.
	Category = model.Category
	// ClickEvent is one (query, item) click observation.
	ClickEvent = model.ClickEvent
	// ItemID identifies an Item.
	ItemID = model.ItemID
	// QueryID identifies a Query.
	QueryID = model.QueryID
	// CategoryID identifies a Category.
	CategoryID = model.CategoryID
	// TopicID identifies a Topic in the built taxonomy.
	TopicID = model.TopicID
	// ScenarioID is a ground-truth label in synthetic corpora.
	ScenarioID = model.ScenarioID

	// Config bundles per-stage pipeline configuration.
	Config = core.Config
	// Topic is a node of the hierarchical topic taxonomy.
	Topic = taxonomy.Topic
	// Taxonomy is the topic tree with item placement.
	Taxonomy = taxonomy.Taxonomy
	// TopicHit is a scored topic returned by SearchTopics.
	TopicHit = taxonomy.Hit
	// CategoryCorrelation is a correlated category pair (Eq. 5).
	CategoryCorrelation = catcorr.Correlation
	// CorpusConfig parameterizes synthetic corpus generation.
	CorpusConfig = synth.Config
	// ABConfig parameterizes the A/B test simulation.
	ABConfig = abtest.Config
	// ABResult is the outcome of an A/B simulation.
	ABResult = abtest.Result
	// Recommender produces item recommendations for a seed item.
	Recommender = recommend.Recommender
	// RoundStat profiles one Parallel HAC round.
	RoundStat = phac.RoundStat
	// StageTiming is one pipeline stage's wall-clock cost; Start offsets
	// reveal which stages the schedule overlapped.
	StageTiming = core.StageTiming
	// DailyPipeline maintains SHOAL over a streaming click log with a
	// sliding day window (the production refresh mode, §3).
	DailyPipeline = core.DailyPipeline
	// DeltaStats summarizes what a build recomputed of the previous one
	// (Build.Delta); a one-shot build reads as a "no-state" dense fallback.
	DeltaStats = core.DeltaStats
)

// NoTopic marks items not placed under any topic.
const NoTopic = taxonomy.NoTopic

// NoScenario marks items/queries without ground-truth labels.
const NoScenario = model.NoScenario

// RootCategory is the Parent of ontology root categories.
const RootCategory = model.RootCategory

// DefaultConfig returns the paper's demonstration settings (α = 0.7,
// 7-day window, correlation threshold 10), clustering at r = 0: the
// paper's r = 2 clusters, up to tie-breaks, in fewer rounds.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultCorpusConfig returns a laptop-scale synthetic corpus
// configuration with ground-truth scenario labels.
func DefaultCorpusConfig() CorpusConfig { return synth.DefaultConfig() }

// GenerateCorpus builds a synthetic Taobao-like corpus (the stand-in for
// the paper's closed dataset; see DESIGN.md).
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) { return synth.Generate(cfg) }

// CuratedCorpus returns the small Fig. 1(b)-style corpus ("trip to the
// beach" / "mountaineering" / "home office") used by examples and tests.
func CuratedCorpus() *Corpus { return synth.Curated() }

// System is a fully built SHOAL taxonomy with its navigation services.
type System struct {
	build *core.Build
}

// Build runs the full SHOAL pipeline over the corpus. Stages that read
// none of each other's output run concurrently.
func Build(corpus *Corpus, cfg Config) (*System, error) {
	return BuildContext(context.Background(), corpus, cfg)
}

// BuildContext is Build with cancellation: canceling ctx aborts in-flight
// pipeline stages and returns the context error.
func BuildContext(ctx context.Context, corpus *Corpus, cfg Config) (*System, error) {
	b, err := core.RunContext(ctx, corpus, cfg)
	if err != nil {
		return nil, err
	}
	return &System{build: b}, nil
}

// Corpus returns the corpus the system was built from.
func (s *System) Corpus() *Corpus { return s.build.Corpus }

// Taxonomy returns the built topic taxonomy.
func (s *System) Taxonomy() *Taxonomy { return s.build.Taxonomy }

// Topics returns the number of topics.
func (s *System) Topics() int { return len(s.build.Taxonomy.Topics) }

// Topic returns a topic by id.
func (s *System) Topic(id TopicID) (*Topic, error) { return s.build.Taxonomy.Topic(id) }

// RootTopics returns the root topic ids (conceptual shopping scenarios).
func (s *System) RootTopics() []TopicID { return s.build.Taxonomy.Roots() }

// Rounds returns the Parallel HAC round profile: how many clusters, edges
// and locally-maximal merges each round saw.
func (s *System) Rounds() []RoundStat { return append([]RoundStat(nil), s.build.Rounds...) }

// StageTimings returns per-stage wall-clock instrumentation from the build,
// in stage declaration order.
func (s *System) StageTimings() []StageTiming {
	return append([]StageTiming(nil), s.build.StageTimings...)
}

// SearchTopics implements demo scenario A (Query→Topic): free-text search
// over topic descriptions and member queries.
func (s *System) SearchTopics(query string, k int) []TopicHit {
	if s.build.Searcher == nil {
		return nil
	}
	return s.build.Searcher.Search(query, k)
}

// SubTopics implements demo scenario B (Topic→Sub-topic).
func (s *System) SubTopics(id TopicID) ([]TopicID, error) {
	t, err := s.build.Taxonomy.Topic(id)
	if err != nil {
		return nil, err
	}
	return append([]TopicID(nil), t.Children...), nil
}

// TopicItems implements demo scenario C (Topic→Category→Item): member
// items of a topic, optionally restricted to one category (pass
// cat = RootCategory for all).
func (s *System) TopicItems(id TopicID, cat CategoryID) ([]ItemID, error) {
	if cat == RootCategory {
		t, err := s.build.Taxonomy.Topic(id)
		if err != nil {
			return nil, err
		}
		return append([]ItemID(nil), t.Items...), nil
	}
	return s.build.Taxonomy.ItemsInCategory(id, cat, s.build.Corpus)
}

// RelatedCategories implements demo scenario D (Category→Category): the
// categories correlated with c via root-topic co-occurrence, strongest
// first. The slice is the caller's.
func (s *System) RelatedCategories(c CategoryID) []CategoryCorrelation {
	return append([]CategoryCorrelation(nil), s.build.Correlations.Related(c)...)
}

// CategoryCorrelations returns every correlated category pair. The slice
// is the caller's.
func (s *System) CategoryCorrelations() []CategoryCorrelation {
	return append([]CategoryCorrelation(nil), s.build.Correlations.Pairs()...)
}

// ItemTopic returns the deepest topic holding the item, or NoTopic.
func (s *System) ItemTopic(it ItemID) TopicID {
	if int(it) < 0 || int(it) >= len(s.build.Taxonomy.ItemTopic) {
		return NoTopic
	}
	return s.build.Taxonomy.ItemTopic[it]
}

// TopicRecommender returns the experiment-arm recommender backed by this
// taxonomy.
func (s *System) TopicRecommender() (Recommender, error) {
	return recommend.NewTopicRecommender(s.build.Corpus, s.build.Taxonomy)
}

// CategoryRecommender returns the control-arm recommender backed by the
// ontology alone.
func (s *System) CategoryRecommender() (Recommender, error) {
	return recommend.NewCategoryRecommender(s.build.Corpus)
}

// RunABTest simulates the paper's online A/B test: category matching
// (control) vs topic matching (experiment), reporting CTRs and lift.
func (s *System) RunABTest(cfg ABConfig) (*ABResult, error) {
	ctl, err := s.CategoryRecommender()
	if err != nil {
		return nil, err
	}
	exp, err := s.TopicRecommender()
	if err != nil {
		return nil, err
	}
	return abtest.Run(s.build.Corpus, ctl, exp, cfg)
}

// DefaultABConfig returns the default A/B simulation parameters.
func DefaultABConfig() ABConfig { return abtest.DefaultConfig() }

// NewDailyPipeline prepares a sliding-window pipeline over a static
// catalog. Each Step ingests a day of clicks, rebuilds the taxonomy from
// the current window, and reports the day: ingest and rebuild times,
// window, delta, and stability against the previous build.
func NewDailyPipeline(corpus *Corpus, cfg Config) (*DailyPipeline, error) {
	return core.NewDailyPipeline(corpus, cfg)
}

// Recommend draws k recommendations from an arbitrary recommender with a
// seeded RNG (convenience for examples and the explorer).
func Recommend(r Recommender, seed ItemID, k int, rngSeed uint64) []ItemID {
	return r.Recommend(seed, k, rand.New(rand.NewPCG(rngSeed, 0)))
}

// SaveTaxonomy writes the taxonomy in gob encoding.
func (s *System) SaveTaxonomy(w io.Writer) error { return s.build.Taxonomy.Save(w) }

// LoadTaxonomy reads a gob-encoded taxonomy written by SaveTaxonomy.
func LoadTaxonomy(r io.Reader) (*Taxonomy, error) { return taxonomy.Load(r) }

// Stats summarizes the build for logs and reports.
func (s *System) Stats() string {
	b := s.build
	return fmt.Sprintf("entities=%d edges=%d merges=%d rounds=%d topics=%d roots=%d correlations=%d",
		len(b.Entities.Entities), b.Graph.NumEdges(), len(b.Dendrogram.Merges),
		len(b.Rounds), len(b.Taxonomy.Topics), len(b.Taxonomy.Roots()),
		len(b.Correlations.Pairs()))
}
