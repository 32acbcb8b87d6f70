// Command lbe-search runs the LBE peptide search: it reads a peptide
// FASTA database and an MS2 query file, builds a Session that
// partitions the database into shards under the chosen policy, searches
// the queries on it -batch at a time, and writes a TSV report of
// peptide-to-spectrum matches. Per-shard load statistics (the paper's
// Eq. 1 LI) are printed at the end. Ctrl-C cancels the query
// phase cleanly; a second Ctrl-C force-kills non-cancellable phases.
//
// Usage:
//
//	lbe-search -db peptides.fasta -ms2 run.ms2 -ranks 16 -policy cyclic -out psms.tsv
//	lbe-search -index store -ms2 run.ms2 -out psms.tsv
//
// The -serial flag runs the single-index shared-memory baseline instead
// of the Session. With -index the session is warm-started from a
// persistent store written by lbe-index -out instead of rebuilt from
// FASTA; the store fixes the database-shape knobs and nothing else:
// -threads and -batch mean the same as on a fresh build. Queries run on
// the work-stealing scheduler, which sizes its own chunks.
//
// With -fdr the database gains reversed decoys and target-decoy
// competition runs over each query's best PSM: its rank-1 row carries
// the q-value, and deeper rows read NA.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"lbe"
	"lbe/internal/cliutil"
	"lbe/internal/core"
	"lbe/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbe-search: ")

	var (
		db      = flag.String("db", "", "peptide FASTA database (required unless -index is set)")
		index   = flag.String("index", "", "warm-start from a session store directory written by lbe-index -out")
		mmap    = flag.Bool("mmap", true, "memory-map the store's shard indexes (page-cache shared, heap fallback); only with -index")
		ms2In   = flag.String("ms2", "", "MS2 query file (required)")
		out     = flag.String("out", "", "output TSV report ('-' or empty for stdout)")
		ranks   = flag.Int("ranks", 4, "shards (virtual cluster size)")
		policy  = flag.String("policy", "cyclic", "distribution policy: chunk|cyclic|random")
		seed    = flag.Int64("seed", 0, "seed for the random policy")
		topK    = flag.Int("topk", 5, "PSMs reported per query")
		maxMods = flag.Int("max-mods", cliutil.DefaultMaxMods, "max modified residues per peptide")
		serial  = flag.Bool("serial", false, "run the shared-memory baseline instead")
		threads = flag.Int("threads", 0, "scheduler workers per query batch (0 = one per core)")
		batch   = flag.Int("batch", 256, "queries per engine batch (0 = one batch)")
		weights = flag.String("weights", "", "comma-separated machine speeds for heterogeneous clusters")
		withFDR = flag.Bool("fdr", false, "append reversed decoys and report q-values over each query's best PSM")
		fdrCut  = flag.Float64("fdr-threshold", 0.01, "FDR acceptance threshold reported with -fdr")
	)
	flag.Parse()
	if *ms2In == "" {
		log.Fatal("-ms2 is required")
	}
	if *index != "" {
		// The store fixes everything that shapes the built database;
		// combining it with build-time flags (or the rebuild-only modes)
		// would silently ignore them.
		if bad := cliutil.ExplicitlySet("db", "serial", "fdr", "fdr-threshold",
			"ranks", "policy", "seed", "max-mods", "topk", "weights"); len(bad) > 0 {
			log.Fatalf("-%s cannot be combined with -index: the store fixes it", bad[0])
		}
	} else {
		if *db == "" {
			log.Fatal("-db or -index is required")
		}
		if bad := cliutil.ExplicitlySet("mmap"); len(bad) > 0 {
			log.Fatalf("-%s requires -index: only a stored index can be memory-mapped", bad[0])
		}
	}

	var peptides []string
	var sess *lbe.Session
	cfg := lbe.DefaultEngineConfig()
	schedule := lbe.Schedule{ThreadsPerRank: *threads, BatchSize: *batch}
	if *index == "" {
		recs, err := lbe.ReadFasta(*db)
		if err != nil {
			log.Fatal(err)
		}
		peptides = make([]string, len(recs))
		for i, r := range recs {
			peptides[i] = r.Sequence
		}

		cfg.Params.Mods.MaxPerPep = *maxMods
		cfg.Seed = *seed
		cfg.TopK = *topK
		pol, err := core.ParsePolicy(*policy)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Policy = pol
		cfg.Schedule = schedule
		if *weights != "" {
			for _, tok := range strings.Split(*weights, ",") {
				w, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
				if err != nil {
					log.Fatalf("bad weight %q: %v", tok, err)
				}
				cfg.Weights = append(cfg.Weights, w)
			}
		}
	} else {
		loadStart := time.Now()
		var err error
		sess, peptides, err = lbe.OpenSessionOptions(*index, lbe.OpenOptions{MapStore: *mmap})
		if err != nil {
			log.Fatal(err)
		}
		defer sess.Close()
		if peptides == nil {
			log.Fatal("store was saved without its peptide list; rebuild it with lbe-index -out")
		}
		sess.SetSchedule(schedule)
		cfg = sess.Config()
		log.Printf("session restored from %s: %d shards (%d mmap-backed), %d groups, index %.2f MB, loaded in %v",
			*index, sess.NumShards(), sess.MappedShards(), sess.Groups(), float64(sess.IndexBytes())/(1<<20),
			time.Since(loadStart).Round(time.Millisecond))
	}

	firstDecoy := len(peptides)
	if *withFDR {
		peptides, firstDecoy = lbe.DecoyDB(peptides)
		log.Printf("appended %d decoys (target-decoy FDR)", len(peptides)-firstDecoy)
	}
	queries, err := lbe.ReadMS2(*ms2In)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("database: %d peptides; queries: %d spectra", firstDecoy, len(queries))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first Ctrl-C cancels ctx, unregister so a second
		// Ctrl-C force-kills even phases that do not watch the context
		// (the index build, the -serial baseline).
		<-ctx.Done()
		stop()
	}()

	start := time.Now()
	var res *lbe.Result
	switch {
	case *serial:
		res, err = lbe.RunSerial(peptides, queries, cfg)
	case sess != nil: // warm-started from -index
		res, err = sess.Search(ctx, queries)
	default:
		sess, err = lbe.NewSession(peptides, lbe.SessionConfig{Config: cfg, Shards: *ranks})
		if err != nil {
			log.Fatal(err)
		}
		defer sess.Close()
		log.Printf("session ready: %d shards, %d groups, index %.2f MB, built in %v",
			sess.NumShards(), sess.Groups(), float64(sess.IndexBytes())/(1<<20),
			time.Since(start).Round(time.Millisecond))
		res, err = sess.Search(ctx, queries)
	}
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	// TSV report.
	var w *bufio.Writer
	if *out == "" || *out == "-" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	// With -fdr, compute q-values over the best PSM per query: a query
	// is one identification, so only its rank-1 PSM enters target-decoy
	// competition. best and qvals run in query order.
	var best []lbe.ScoredPSM
	var qvals []float64
	if *withFDR {
		for q, psms := range res.PSMs {
			if len(psms) == 0 {
				continue
			}
			best = append(best, lbe.ScoredPSM{
				Query:   q,
				Peptide: psms[0].Peptide,
				Score:   psms[0].Score,
				IsDecoy: int(psms[0].Peptide) >= firstDecoy,
			})
		}
		qvals = lbe.QValues(best)
	}

	if *withFDR {
		fmt.Fprintln(w, "scan\trank\tpeptide\tsequence\tshared\tscore\tprecursor\tdecoy\tqvalue")
	} else {
		fmt.Fprintln(w, "scan\trank\tpeptide\tsequence\tshared\tscore\tprecursor")
	}
	reported, identified := 0, 0
	for q, psms := range res.PSMs {
		for rank, p := range psms {
			if *withFDR {
				decoy := 0
				if int(p.Peptide) >= firstDecoy {
					decoy = 1
				}
				qval := "NA"
				if rank == 0 {
					qval = strconv.FormatFloat(qvals[identified], 'f', 4, 64)
					identified++
				}
				fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%.4f\t%.4f\t%d\t%s\n",
					queries[q].Scan, rank+1, p.Peptide, peptides[p.Peptide],
					p.Shared, p.Score, p.Precursor, decoy, qval)
			} else {
				fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%.4f\t%.4f\n",
					queries[q].Scan, rank+1, p.Peptide, peptides[p.Peptide], p.Shared, p.Score, p.Precursor)
			}
			reported++
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if *withFDR {
		accepted, err := lbe.AcceptedAt(best, qvals, *fdrCut)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("target PSMs accepted at %.1f%% FDR: %d", 100**fdrCut, accepted)
	}

	// Load statistics (stderr, so the TSV stays clean on stdout).
	log.Printf("searched %d spectra in %v; %d PSMs reported; %d cPSMs scored",
		len(queries), wall.Round(time.Millisecond), reported, res.CandidatePSMs())
	if !*serial {
		wu := lbe.WorkUnits(res.Stats)
		log.Printf("policy %s on %d ranks: load imbalance %.1f%% (work units), wasted CPU work %.0f units",
			cfg.Policy, len(res.Stats), 100*stats.LoadImbalance(wu), stats.WastedCPUTime(wu))
		for _, s := range res.Stats {
			log.Printf("  rank %2d: %7d peptides %8d rows %12d work units  query %8.3fms",
				s.Rank, s.Peptides, s.Rows, s.Work.IonHits+s.Work.Scored,
				float64(s.QueryNanos)/1e6)
		}
	}
}
