// Command lbe-bench regenerates the paper's evaluation: every figure
// (Figs. 5-11), the in-text setup statistics, and the design-choice
// ablations, printing markdown tables suitable for EXPERIMENTS.md.
//
// Usage:
//
//	lbe-bench                    # everything, laptop scale (1/1000 of paper)
//	lbe-bench -fig 6             # just the load-imbalance figure
//	lbe-bench -scale 0.01 -out EXPERIMENTS.md
//	lbe-bench -fig steal -json artifacts/
//
// Besides the markdown tables, every figure is also written as a
// machine-readable BENCH_<id>.json artifact (series plus headline
// metrics) into the -json directory, "" to disable — the hook for
// tracking perf trajectories across commits without scraping tables.
package main

import (
	"context"
	"encoding/json"
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
		scale   = flag.Float64("scale", 1.0/1000, "fraction of the paper's index sizes")
		ranks   = flag.Int("ranks", 16, "partitions for the LI figures")
		queries = flag.Int("queries", 800, "query spectra per run")
		seed    = flag.Uint64("seed", 1, "dataset seed")
		out     = flag.String("out", "", "write markdown to this file instead of stdout")
		jsonDir = flag.String("json", ".", "directory for machine-readable BENCH_<id>.json artifacts ('' disables)")
	)
	flag.Parse()

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

	var sb strings.Builder
	var figs []bench.Figure
	start := time.Now()
	if *fig == "all" {
		var err error
		figs, err = bench.All(o)
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range figs {
			sb.WriteString(f.Markdown())
			sb.WriteString("\n")
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
		sb.WriteString(f.Markdown())
	}
	log.Printf("experiments completed in %v", time.Since(start).Round(time.Millisecond))

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, f := range figs {
			doc, err := json.MarshalIndent(f, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*jsonDir, "BENCH_"+f.ID+".json")
			if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s", path)
		}
	}

	if *out == "" {
		fmt.Print(sb.String())
		return
	}
	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}
