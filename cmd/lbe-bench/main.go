// Command lbe-bench regenerates the paper's evaluation: Figs. 5-8 and 11,
// the in-text setup statistics, and the design-choice ablations, printing
// markdown tables. Every figure is a pure function of the flags; at the
// defaults its JSON is committed as docs/figures/BENCH_<id>.json.
//
// Usage:
//
//	lbe-bench                        # everything, laptop scale (1/1000 of paper)
//	lbe-bench -fig 6                 # just the load-imbalance figure
//	lbe-bench -scale 0.01 > EXPERIMENTS.md
//	lbe-bench -json docs/figures     # re-record the committed figures
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"lbe/internal/bench"
)

func main() {
	figNames := []string{"all"}
	for _, f := range bench.Figures {
		figNames = append(figNames, f.ID)
	}

	log.SetFlags(0)
	log.SetPrefix("lbe-bench: ")

	var (
		fig     = flag.String("fig", "all", "which experiment: "+strings.Join(figNames, "|"))
		scale   = flag.Float64("scale", 1.0/1000, "fraction of the paper's index sizes, in (0, 1]")
		ranks   = flag.Int("ranks", 16, "partitions for the LI figures")
		queries = flag.Int("queries", 800, "query spectra per run")
		seed    = flag.Uint64("seed", 1, "dataset seed")
		jsonDir = flag.String("json", "", "also write each figure as BENCH_<id>.json into this directory")
	)
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lbe-bench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *ranks < 1:
		usage("-ranks %d: need at least one partition", *ranks)
	case *queries < 1:
		usage("-queries %d: need at least one query spectrum", *queries)
	case !(*scale > 0 && *scale <= 1):
		usage("-scale %g: must be in (0, 1]", *scale)
	}

	o := bench.DefaultOptions()
	o.Scale = *scale
	o.Ranks = *ranks
	o.Queries = *queries
	o.Seed = *seed

	// Interrupt cancels the run's root context, so a Ctrl-C mid-figure
	// stops the searches in flight instead of abandoning them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	o.Ctx = ctx

	var figs []bench.Figure
	start := time.Now()
	if *fig == "all" {
		var err error
		if figs, err = bench.All(o); err != nil {
			log.Fatal(err)
		}
	} else {
		var run func(bench.Options) (bench.Figure, error)
		for _, f := range bench.Figures {
			if f.ID == *fig {
				run = f.Run
				break
			}
		}
		if run == nil {
			log.Fatalf("unknown -fig %q; options: %s", *fig, strings.Join(figNames, " "))
		}
		f, err := run(o)
		if err != nil {
			log.Fatal(err)
		}
		figs = append(figs, f)
	}
	log.Printf("experiments completed in %v", time.Since(start).Round(time.Millisecond))

	for i, f := range figs {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(f.Markdown())
	}

	if *jsonDir == "" {
		return
	}
	if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, f := range figs {
		doc, err := f.JSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*jsonDir, "BENCH_"+f.ID+".json"), doc, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
