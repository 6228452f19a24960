// Package eval measures clustering quality against the synthetic
// generator's ground-truth scenarios.
//
// The paper evaluated item-topic placement by having domain experts sample
// 1000 topics, inspect 100 random items under each, and judge whether the
// item belongs — reporting 98% precision (§3). With ground-truth labels we
// can run the same protocol mechanically: an item "belongs" to a topic when
// its scenario matches the topic's majority scenario. The package also
// provides normalized mutual information and purity for the α-sweep
// ablation (E6).
package eval

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"shoal/internal/model"
	"shoal/internal/taxonomy"
)

// PrecisionConfig mirrors the paper's sampling protocol.
type PrecisionConfig struct {
	// SampleTopics is the number of topics sampled (paper: 1000). 0
	// means all topics.
	SampleTopics int
	// ItemsPerTopic is the number of items sampled per topic (paper:
	// 100). 0 means all items.
	ItemsPerTopic int
	// MinTopicItems skips topics with fewer labeled items than this
	// (tiny topics have no meaningful majority).
	MinTopicItems int
	// RootTopicsOnly evaluates root topics (the conceptual shopping
	// scenarios) rather than the deepest topics.
	RootTopicsOnly bool
	// Seed drives sampling.
	Seed uint64
}

// DefaultPrecisionConfig is the paper's 1000×100 protocol.
func DefaultPrecisionConfig() PrecisionConfig {
	return PrecisionConfig{SampleTopics: 1000, ItemsPerTopic: 100, MinTopicItems: 3, RootTopicsOnly: true, Seed: 1}
}

// PrecisionResult is the outcome of the sampling evaluation.
type PrecisionResult struct {
	// Precision is correct/judged.
	Precision float64
	// TopicsEvaluated is the number of sampled topics.
	TopicsEvaluated int
	// ItemsJudged is the number of item judgments.
	ItemsJudged int
}

// Precision runs the sampling protocol: for each sampled topic, the
// majority ground-truth scenario is the topic's intended meaning, and a
// sampled item is correct when its scenario matches.
func Precision(tx *taxonomy.Taxonomy, corpus *model.Corpus, cfg PrecisionConfig) (*PrecisionResult, error) {
	if cfg.SampleTopics < 0 || cfg.ItemsPerTopic < 0 {
		return nil, fmt.Errorf("eval: negative sample sizes")
	}
	var topics []model.TopicID
	if cfg.RootTopicsOnly {
		topics = tx.Roots()
	} else {
		for i := range tx.Topics {
			if len(tx.Topics[i].Children) == 0 {
				topics = append(topics, tx.Topics[i].ID)
			}
		}
	}
	if len(topics) == 0 {
		return nil, fmt.Errorf("eval: taxonomy has no topics to evaluate")
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xE7A1))
	if cfg.SampleTopics > 0 && cfg.SampleTopics < len(topics) {
		rng.Shuffle(len(topics), func(i, j int) { topics[i], topics[j] = topics[j], topics[i] })
		topics = topics[:cfg.SampleTopics]
		sort.Slice(topics, func(i, j int) bool { return topics[i] < topics[j] })
	}

	res := &PrecisionResult{}
	correct := 0
	for _, tid := range topics {
		t := &tx.Topics[tid]
		labeled := make([]model.ItemID, 0, len(t.Items))
		counts := make(map[model.ScenarioID]int)
		for _, it := range t.Items {
			s := corpus.Items[it].Scenario
			if s == model.NoScenario {
				continue
			}
			labeled = append(labeled, it)
			counts[s]++
		}
		if len(labeled) < cfg.MinTopicItems {
			continue
		}
		majority := majorityLabel(counts)
		sample := labeled
		if cfg.ItemsPerTopic > 0 && cfg.ItemsPerTopic < len(labeled) {
			rng.Shuffle(len(labeled), func(i, j int) { labeled[i], labeled[j] = labeled[j], labeled[i] })
			sample = labeled[:cfg.ItemsPerTopic]
		}
		for _, it := range sample {
			res.ItemsJudged++
			if corpus.Items[it].Scenario == majority {
				correct++
			}
		}
		res.TopicsEvaluated++
	}
	if res.ItemsJudged == 0 {
		return nil, fmt.Errorf("eval: no labeled items judged")
	}
	res.Precision = float64(correct) / float64(res.ItemsJudged)
	return res, nil
}

func majorityLabel(counts map[model.ScenarioID]int) model.ScenarioID {
	labels := make([]model.ScenarioID, 0, len(counts))
	for s := range counts {
		labels = append(labels, s)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	best, bestN := model.NoScenario, -1
	for _, s := range labels {
		if counts[s] > bestN {
			best, bestN = s, counts[s]
		}
	}
	return best
}

// Partition pairs predicted cluster labels with ground-truth labels for
// the agreement metrics below. Items without ground truth are excluded by
// the constructors.
type Partition struct {
	pred  []int
	truth []int
}

// TopicPartition builds a Partition from item→root-topic placement against
// item scenarios, excluding unassigned and unlabeled items.
func TopicPartition(tx *taxonomy.Taxonomy, corpus *model.Corpus) (*Partition, error) {
	p := &Partition{}
	for it := range corpus.Items {
		s := corpus.Items[it].Scenario
		tid := tx.ItemTopic[it]
		if s == model.NoScenario || tid == taxonomy.NoTopic {
			continue
		}
		root, err := tx.RootOf(tid)
		if err != nil {
			return nil, err
		}
		p.pred = append(p.pred, int(root))
		p.truth = append(p.truth, int(s))
	}
	if len(p.pred) == 0 {
		return nil, fmt.Errorf("eval: no overlapping labeled items")
	}
	return p, nil
}

// LabelsPartition builds a Partition from parallel label slices (used for
// graph-level evaluation where predictions are per-entity labels).
func LabelsPartition(pred []int32, truth []model.ScenarioID) (*Partition, error) {
	if len(pred) != len(truth) {
		return nil, fmt.Errorf("eval: pred length %d != truth length %d", len(pred), len(truth))
	}
	p := &Partition{}
	for i := range pred {
		if truth[i] == model.NoScenario {
			continue
		}
		p.pred = append(p.pred, int(pred[i]))
		p.truth = append(p.truth, int(truth[i]))
	}
	if len(p.pred) == 0 {
		return nil, fmt.Errorf("eval: no labeled points")
	}
	return p, nil
}

// N returns the number of labeled points.
func (p *Partition) N() int { return len(p.pred) }

// NMI returns normalized mutual information (arithmetic-mean
// normalization) between prediction and truth, in [0,1].
func (p *Partition) NMI() float64 {
	n := float64(len(p.pred))
	joint := make(map[[2]int]float64)
	pc := make(map[int]float64)
	tc := make(map[int]float64)
	for i := range p.pred {
		joint[[2]int{p.pred[i], p.truth[i]}]++
		pc[p.pred[i]]++
		tc[p.truth[i]]++
	}
	// Summed in sorted key order, like entropy: float addition does not
	// commute in the last bits, and map order would make them wobble from
	// call to call.
	cells := slices.SortedFunc(maps.Keys(joint), func(a, b [2]int) int {
		return slices.Compare(a[:], b[:])
	})
	var mi float64
	for _, k := range cells {
		pij := joint[k] / n
		mi += float64(pij * math.Log(pij/((pc[k[0]]/n)*(tc[k[1]]/n))))
	}
	hp := entropy(pc, n)
	ht := entropy(tc, n)
	if hp == 0 && ht == 0 {
		return 1 // both partitions trivial and identical
	}
	den := (hp + ht) / 2
	if den == 0 {
		return 0
	}
	v := mi / den
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Purity returns the fraction of points whose cluster's majority truth
// label matches their own.
func (p *Partition) Purity() float64 {
	byCluster := make(map[int]map[int]int)
	for i := range p.pred {
		if byCluster[p.pred[i]] == nil {
			byCluster[p.pred[i]] = make(map[int]int)
		}
		byCluster[p.pred[i]][p.truth[i]]++
	}
	var correct int
	for _, counts := range byCluster {
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(p.pred))
}

func entropy(counts map[int]float64, n float64) float64 {
	var h float64
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		p := counts[k] / n
		if p > 0 {
			h -= float64(p * math.Log(p))
		}
	}
	return h
}
