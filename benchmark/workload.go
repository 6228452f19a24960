package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"

	"shoal/internal/model"
	"shoal/internal/synth"
)

// workload is one set of inputs: a catalog scale and a day-over-day
// churn level. Click volume is held equal across churn levels (the
// repeat probability absorbs the exploratory clicks), so churn — which
// decides whether the delta path or the dense fallback runs — is the
// only thing that differs between lowchurn and highchurn.
type workload struct {
	name string
	// scenarios scales the catalog: synth emits 200 items and 40
	// queries per scenario plus 150 noise items and 25 head queries.
	scenarios int
	// explore is the mean number of exploratory clicks (on items outside
	// the query's affinity list) per query per day — the churn control:
	// every such click makes an item's query set change when it enters
	// the window and again when it leaves seven days later.
	explore float64
	// repeat is the per-day probability that a query clicks each item of
	// its affinity list again; high enough that affinity pairs
	// practically never leave the window.
	repeat float64
	// setups is how many times a run repeats set-up to report a median.
	setups int
	// loadedSlides is the length of the concurrent phase.
	loadedSlides int
	// burst is the number of requests per burst, bursts the number of
	// bursts per round: a workload whose slide takes a second fits few
	// rounds into a run, and needs several bursts in each to have enough
	// request samples.
	burst, bursts int
}

// workloads are the benchmark's inputs; BENCHMARK.json and README.md
// record why each was chosen.
var workloads = []workload{
	{
		name:      "lowchurn",
		scenarios: 30, explore: 0.03, repeat: 0.75, setups: 7, loadedSlides: 8, burst: 4000, bursts: 1,
	},
	{
		name:      "highchurn",
		scenarios: 30, explore: 0.72, repeat: 0.70, setups: 7, loadedSlides: 8, burst: 4000, bursts: 1,
	},
	{
		name:      "bigcorpus",
		scenarios: 120, explore: 0.72, repeat: 0.70, setups: 5, loadedSlides: 4, burst: 4000, bursts: 3,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	windowDays = 7
	// affinityMean mirrors synth's ClicksPerQuery: a query's affinity
	// list has 1..2*affinityMean items.
	affinityMean = 14
	// clickNoise mirrors synth's ClickNoise: the share of clicks that
	// land on an item of any scenario.
	clickNoise = 0.04
	// catalogSeed fixes what a workload is — the catalog, each query's
	// affinity list and the popularity rank of the query texts — so that
	// --seed draws only the click stream and the request stream over it.
	// Catalogs of different seeds differ by a few percent in topic count
	// and in bytes allocated per slide and per request, which would be
	// the whole spread of metrics that otherwise repeat to a fraction of
	// a percent.
	catalogSeed = 1
)

// generator owns the benchmark's inputs. The catalog comes from
// synth.Generate; the click stream is generated here because synth
// spreads each query's clicks uniformly over its Days and so cannot
// hold day-over-day churn fixed. Every day is a pure function of
// (seed, day), so days can be generated on demand in any order.
type generator struct {
	w      workload
	seed   uint64
	corpus *model.Corpus
	// byScenario[s] lists scenario s's items — the pool a scenario
	// query's clicks are drawn from.
	byScenario [][]model.ItemID
	// affinity[q] is the fixed list of items query q keeps clicking.
	affinity [][]model.ItemID
	pcg      *rand.PCG
	rng      *rand.Rand
}

func newGenerator(w workload, seed uint64) (*generator, error) {
	sc := synth.DefaultConfig()
	sc.Seed = catalogSeed
	sc.Scenarios = w.scenarios
	sc.Days = 1
	corpus, err := synth.Generate(sc)
	if err != nil {
		return nil, fmt.Errorf("generate catalog: %w", err)
	}
	corpus.Clicks = nil // clicks arrive day by day from g.day
	g := &generator{w: w, seed: seed, corpus: corpus, pcg: rand.NewPCG(catalogSeed, 0xAFF1)}
	g.rng = rand.New(g.pcg)
	g.byScenario = make([][]model.ItemID, len(corpus.Scenarios))
	for i := range corpus.Items {
		if s := corpus.Items[i].Scenario; s != model.NoScenario {
			g.byScenario[s] = append(g.byScenario[s], corpus.Items[i].ID)
		}
	}
	g.affinity = make([][]model.ItemID, len(corpus.Queries))
	for q := range corpus.Queries {
		n := 1 + g.rng.IntN(2*affinityMean)
		if corpus.Queries[q].Scenario == model.NoScenario {
			n = 2 * affinityMean // head queries click broadly
		}
		list := make([]model.ItemID, n)
		for i := range list {
			list[i] = g.pick(corpus.Queries[q].Scenario)
		}
		g.affinity[q] = list
	}
	return g, nil
}

// pick draws a click target for a query of scenario s: a same-scenario
// item, or with probability clickNoise (always, for head queries) any
// item of the catalog.
func (g *generator) pick(s model.ScenarioID) model.ItemID {
	if s == model.NoScenario || g.rng.Float64() < clickNoise {
		return model.ItemID(g.rng.IntN(len(g.corpus.Items)))
	}
	own := g.byScenario[s]
	return own[g.rng.IntN(len(own))]
}

// day appends day d's click events to buf[:0] and returns it.
func (g *generator) day(d int, buf []model.ClickEvent) []model.ClickEvent {
	g.pcg.Seed(g.seed, 0xDA7<<32|uint64(d))
	buf = buf[:0]
	whole := int(g.w.explore)
	frac := g.w.explore - float64(whole)
	for q := range g.corpus.Queries {
		qid := model.QueryID(q)
		for _, it := range g.affinity[q] {
			if g.rng.Float64() < g.w.repeat {
				buf = append(buf, model.ClickEvent{Query: qid, Item: it, Day: int32(d), Count: 1 + int32(g.rng.IntN(3))})
			}
		}
		n := whole
		if g.rng.Float64() < frac {
			n++
		}
		for i := 0; i < n; i++ {
			it := g.pick(g.corpus.Queries[q].Scenario)
			buf = append(buf, model.ClickEvent{Query: qid, Item: it, Day: int32(d), Count: 1 + int32(g.rng.IntN(3))})
		}
	}
	return buf
}

// reqClass is the route a request exercises.
type reqClass uint8

const (
	classSearch reqClass = iota
	classTopic
	classItems
	classRelated
	numClasses
)

// request is one prebuilt request of the pool. Requests are reused: the
// mux overwrites its per-request match state on every dispatch and one
// goroutine at a time owns the pool.
type request struct {
	req   *http.Request
	class reqClass
	// query is the q parameter of a search request; miss marks a
	// garbage query, expected to answer 200 with no hits.
	query string
	miss  bool
}

const (
	searchShare = 0.80
	missShare   = 0.05
	zipfS       = 1.1
	numMisses   = 64
	searchK     = 5
)

// traffic is the request side of a workload: a pool of prebuilt
// requests and a seeded stream of indices into it. 80% are searches
// (Zipf over the corpus query texts, 5% of them garbage), 20% browse
// requests split evenly over the three browse routes.
type traffic struct {
	pool []request
	// Pool layout: queries (in popularity order), misses, topics, topic
	// items, categories.
	nQueries, nTopics, nCats int
	rng                      *rand.Rand
	zipf                     *rand.Zipf
}

// newTraffic builds the pool. topics is the number of topic ids to
// browse: ids are dense per build, so the caller passes half the first
// build's topic count to stay valid across swaps.
func newTraffic(corpus *model.Corpus, topics int, seed uint64) (*traffic, error) {
	if topics < 1 {
		return nil, fmt.Errorf("traffic: first build has too few topics to browse")
	}
	t := &traffic{nQueries: len(corpus.Queries), nTopics: topics, nCats: len(corpus.Categories)}
	t.rng = rand.New(rand.NewPCG(seed, 0x7AFF1C))
	t.zipf = rand.NewZipf(t.rng, zipfS, 1, uint64(t.nQueries-1))
	fixed := rand.New(rand.NewPCG(catalogSeed, 0x7AFF1C))
	add := func(class reqClass, path, query string, miss bool) error {
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			return fmt.Errorf("traffic: %w", err)
		}
		t.pool = append(t.pool, request{req: req, class: class, query: query, miss: miss})
		return nil
	}
	search := func(q string, miss bool) error {
		return add(classSearch, "/api/search?k="+strconv.Itoa(searchK)+"&q="+url.QueryEscape(q), q, miss)
	}
	// Popularity rank is a fixed permutation of the query ids, so the
	// head of the Zipf is not the first scenario.
	for _, q := range fixed.Perm(t.nQueries) {
		if err := search(corpus.Queries[q].Text, false); err != nil {
			return nil, err
		}
	}
	// Garbage queries are vowel-free, so they share no token with the
	// generator's syllable words.
	const consonants = "bcdfghjklmnpqrstvwxz"
	for i := 0; i < numMisses; i++ {
		b := []byte("zxq")
		for j := 0; j < 8; j++ {
			b = append(b, consonants[fixed.IntN(len(consonants))])
		}
		if err := search(string(b), true); err != nil {
			return nil, err
		}
	}
	for id := 0; id < topics; id++ {
		if err := add(classTopic, "/api/topics/"+strconv.Itoa(id), "", false); err != nil {
			return nil, err
		}
	}
	for id := 0; id < topics; id++ {
		if err := add(classItems, "/api/topics/"+strconv.Itoa(id)+"/items", "", false); err != nil {
			return nil, err
		}
	}
	for id := 0; id < t.nCats; id++ {
		if err := add(classRelated, "/api/categories/"+strconv.Itoa(id)+"/related", "", false); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// next fills idx with the next len(idx) pool indices of the stream.
func (t *traffic) next(idx []int32) {
	missBase := t.nQueries
	topicBase := missBase + numMisses
	itemsBase := topicBase + t.nTopics
	catBase := itemsBase + t.nTopics
	for i := range idx {
		var at int
		if t.rng.Float64() < searchShare {
			if t.rng.Float64() < missShare {
				at = missBase + t.rng.IntN(numMisses)
			} else {
				at = int(t.zipf.Uint64())
			}
		} else {
			switch t.rng.IntN(3) {
			case 0:
				at = topicBase + t.rng.IntN(t.nTopics)
			case 1:
				at = itemsBase + t.rng.IntN(t.nTopics)
			default:
				at = catBase + t.rng.IntN(t.nCats)
			}
		}
		idx[i] = int32(at)
	}
}
