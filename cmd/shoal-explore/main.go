// Command shoal-explore is the interactive counterpart of the paper's demo
// GUI (Fig. 5). It builds (or loads) a SHOAL system and exposes the four
// demonstration scenarios at a REPL prompt:
//
//	A  query <text>        — Query→Topic star graph
//	B  topic <id>          — Topic→Sub-topic descent
//	C  items <id> [cat]    — Topic→Category→Item drill-down
//	D  related <category>  — Category→Category correlations
//
// Usage:
//
//	shoal-explore                       # curated Fig. 1(b) corpus
//	shoal-explore -corpus corpus.json.gz
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"shoal"
	"shoal/internal/core"
	"shoal/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoal-explore: ")

	corpusPath := flag.String("corpus", "", "corpus to build from (empty: curated mini corpus)")
	flag.Parse()

	corpus := shoal.CuratedCorpus()
	if *corpusPath != "" {
		var err error
		corpus, err = store.LoadCorpus(*corpusPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("building SHOAL over %s ...\n", corpus.Stats())
	sys, err := shoal.Build(corpus, core.CuratedConfig(*corpusPath != ""))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ready: %s\n", sys.Stats())
	fmt.Println(`commands: query <text> | topic <id> | items <id> [catID] | related <name|catID> | roots | help | quit`)

	repl(sys, os.Stdin)
}

func repl(sys *shoal.System, in *os.File) {
	corpus := sys.Corpus()
	sc := bufio.NewScanner(in)
	for {
		fmt.Print("shoal> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("query <text>   scenario A: topics matching a free-text query")
			fmt.Println("topic <id>     scenario B: a topic and its sub-topics")
			fmt.Println("items <id> [c] scenario C: items of a topic, optionally one category")
			fmt.Println("related <c>    scenario D: categories correlated with a category")
			fmt.Println("roots          list root topics")
		case "roots":
			for _, id := range sys.RootTopics() {
				t, _ := sys.Topic(id)
				fmt.Printf("  [%d] %-30q items=%d categories=%d\n", id, t.Description, len(t.Items), len(t.Categories))
			}
		case "query":
			hits := sys.SearchTopics(strings.Join(args, " "), 5)
			if len(hits) == 0 {
				fmt.Println("  no matching topics")
				continue
			}
			for _, h := range hits {
				t, _ := sys.Topic(h.Topic)
				fmt.Printf("  [%d] %-30q score=%.2f items=%d\n", h.Topic, t.Description, h.Score, len(t.Items))
			}
		case "topic":
			id, ok := parseID(args)
			if !ok {
				fmt.Println("  usage: topic <id>")
				continue
			}
			t, err := sys.Topic(shoal.TopicID(id))
			if err != nil {
				fmt.Printf("  %v\n", err)
				continue
			}
			fmt.Printf("  topic [%d] %q level=%d items=%d\n", t.ID, t.Description, t.Level, len(t.Items))
			fmt.Printf("  queries: %s\n", strings.Join(t.DescQueries, " | "))
			subs, _ := sys.SubTopics(t.ID)
			for _, s := range subs {
				st, _ := sys.Topic(s)
				fmt.Printf("    sub [%d] %-30q items=%d\n", s, st.Description, len(st.Items))
			}
			if len(subs) == 0 {
				fmt.Println("    (no sub-topics)")
			}
		case "items":
			if len(args) == 0 {
				fmt.Println("  usage: items <topicID> [categoryID]")
				continue
			}
			id, ok := parseID(args[:1])
			if !ok {
				fmt.Println("  usage: items <topicID> [categoryID]")
				continue
			}
			cat := shoal.RootCategory
			if len(args) > 1 {
				if c, ok := parseID(args[1:]); ok {
					cat = shoal.CategoryID(c)
				}
			}
			t, err := sys.Topic(shoal.TopicID(id))
			if err != nil {
				fmt.Printf("  %v\n", err)
				continue
			}
			fmt.Printf("  categories of topic [%d]:", t.ID)
			for _, c := range t.Categories {
				fmt.Printf(" %d=%s", c, corpus.Categories[c].Name)
			}
			fmt.Println()
			items, err := sys.TopicItems(t.ID, cat)
			if err != nil {
				fmt.Printf("  %v\n", err)
				continue
			}
			max := 12
			for i, it := range items {
				if i >= max {
					fmt.Printf("    ... %d more\n", len(items)-max)
					break
				}
				fmt.Printf("    #%d [%s] %s\n", it, corpus.Categories[corpus.Items[it].Category].Name, corpus.Items[it].Title)
			}
		case "related":
			if len(args) == 0 {
				fmt.Println("  usage: related <categoryID|name>")
				continue
			}
			cat := findCategory(corpus, strings.Join(args, " "))
			if cat == shoal.RootCategory {
				fmt.Println("  unknown category")
				continue
			}
			rel := sys.RelatedCategories(cat)
			if len(rel) == 0 {
				fmt.Println("  no correlated categories (try a lower -catcorr threshold)")
				continue
			}
			fmt.Printf("  %s correlates with:\n", corpus.Categories[cat].Name)
			for _, r := range rel {
				otherID := r.A
				if otherID == cat {
					otherID = r.B
				}
				fmt.Printf("    %-24s strength=%d\n", corpus.Categories[otherID].Name, r.Strength)
			}
		default:
			fmt.Printf("  unknown command %q (try help)\n", cmd)
		}
	}
}

func parseID(args []string) (int, bool) {
	if len(args) == 0 {
		return 0, false
	}
	v, err := strconv.Atoi(args[0])
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// findCategory resolves a numeric id or a (case-insensitive) name.
func findCategory(corpus *shoal.Corpus, s string) shoal.CategoryID {
	if v, err := strconv.Atoi(s); err == nil {
		if v >= 0 && v < len(corpus.Categories) {
			return shoal.CategoryID(v)
		}
		return shoal.RootCategory
	}
	for i := range corpus.Categories {
		if strings.EqualFold(corpus.Categories[i].Name, s) {
			return corpus.Categories[i].ID
		}
	}
	return shoal.RootCategory
}
