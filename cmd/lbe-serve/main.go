// Command lbe-serve runs the LBE search engine as a long-running HTTP
// service: it builds a Session over a peptide database once,
// then serves concurrent POST /search requests, coalescing small
// requests into merged engine batches (up to -coalesce queries or a
// -flush window) behind a bounded admission queue that answers 429 when
// full. GET /healthz and GET /stats expose liveness and the session's
// lifetime load figures.
//
// Usage:
//
//	lbe-serve -db peps.fasta -addr :8417 -ranks 4
//	lbe-serve -db proteins.fasta -digest -coalesce 128 -flush 5ms
//	lbe-serve -index store -addr :8417
//
// With -index the service warm-starts from a persistent session store
// written by lbe-index -out: instead of re-digesting and rebuilding
// every shard index (minutes of cold start on real databases), the
// saved indexes are loaded in parallel — O(index bytes) instead of
// O(database). The store fixes the database-shape knobs (shards,
// policy, mods, topk) and nothing else: -threads, -batch and the serving
// flags mean the same as on a fresh build. Queries run on the
// work-stealing scheduler, which sizes its own chunks.
//
// The first SIGINT/SIGTERM drains gracefully: admission stops (503),
// queued and in-flight requests complete, then the process exits. A
// second signal force-kills in-flight searches.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lbe"
	"lbe/internal/cliutil"
	"lbe/internal/core"
	"lbe/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbe-serve: ")

	var (
		addr     = flag.String("addr", ":8417", "listen address (host:port; port 0 picks a free port)")
		db       = flag.String("db", "", "peptide FASTA database (required unless -index is set)")
		index    = flag.String("index", "", "warm-start from a session store directory written by lbe-index -out")
		doDigest = flag.Bool("digest", false, "treat -db as proteins and digest in-process")
		maxMods  = flag.Int("max-mods", cliutil.DefaultMaxMods, "max modified residues per peptide")
		ranks    = flag.Int("ranks", 4, "shards (virtual cluster size)")
		policy   = flag.String("policy", "cyclic", "distribution policy: chunk|cyclic|random")
		seed     = flag.Int64("seed", 0, "seed for the random policy")
		topK     = flag.Int("topk", 5, "PSMs reported per query")
		threads  = flag.Int("threads", 0, "scheduler workers per query batch (0 = one per core)")
		batch    = flag.Int("batch", 256, "queries per engine batch of one search (0 = one batch)")
		coalesce = flag.Int("coalesce", 64, "max queries merged into one coalesced batch")
		flush    = flag.Duration("flush", 2*time.Millisecond, "max wait before a partial batch is searched")
		queue    = flag.Int("queue", 256, "admission queue depth in requests (full = 429)")
		inflight = flag.Int("inflight", 4, "concurrently searching coalesced batches")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request deadline (0 disables)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown grace period")
		cacheB   = flag.Int64("cache-bytes", 64<<20, "answer cache byte budget (0 disables caching)")
	)
	flag.Parse()
	schedule := lbe.Schedule{ThreadsPerRank: *threads, BatchSize: *batch}

	var sess *lbe.Session
	var peptides []string
	if *index != "" {
		// The store fixes everything that shapes the built database;
		// combining it with build-time flags would silently ignore them.
		if bad := cliutil.ExplicitlySet("db", "digest", "max-mods", "ranks", "policy", "seed", "topk"); len(bad) > 0 {
			log.Fatalf("-%s cannot be combined with -index: the store fixes it", bad[0])
		}
		loadStart := time.Now()
		var err error
		sess, peptides, err = lbe.OpenSession(*index)
		if err != nil {
			log.Fatal(err)
		}
		sess.SetSchedule(schedule)
		log.Printf("session restored from %s: %d peptides, %d shards (%d mmap-backed), %d groups, index %.2f MB, loaded in %v",
			*index, len(peptides), sess.NumShards(), sess.MappedShards(), sess.Groups(), float64(sess.IndexBytes())/(1<<20),
			time.Since(loadStart).Round(time.Millisecond))
		if peptides == nil {
			log.Printf("store has no peptide list; responses will omit matched sequences")
		}
	} else {
		if *db == "" {
			log.Fatal("-db or -index is required")
		}
		recs, err := lbe.ReadFasta(*db)
		if err != nil {
			log.Fatal(err)
		}
		seqs := make([]string, len(recs))
		for i, r := range recs {
			seqs[i] = r.Sequence
		}
		peptides = seqs
		if *doDigest {
			peptides, err = cliutil.DigestPeptides(seqs)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("digested %d proteins into %d unique peptides", len(seqs), len(peptides))
		}

		scfg := lbe.DefaultSessionConfig()
		scfg.Params.Mods.MaxPerPep = *maxMods
		scfg.Seed = *seed
		scfg.TopK = *topK
		pol, err := core.ParsePolicy(*policy)
		if err != nil {
			log.Fatal(err)
		}
		scfg.Policy = pol
		scfg.Schedule = schedule
		scfg.Shards = *ranks

		buildStart := time.Now()
		sess, err = lbe.NewSession(peptides, scfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("session ready: %d peptides, %d shards, %d groups, index %.2f MB, built in %v",
			len(peptides), sess.NumShards(), sess.Groups(), float64(sess.IndexBytes())/(1<<20),
			time.Since(buildStart).Round(time.Millisecond))
	}
	defer sess.Close()

	srv := server.New(sess, peptides, server.Config{
		BatchSize:      *coalesce,
		FlushInterval:  *flush,
		QueueDepth:     *queue,
		MaxInFlight:    *inflight,
		RequestTimeout: *timeout,
		CacheBytes:     *cacheB,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The resolved address line is load-bearing: tests and scripts that
	// boot with port 0 scan for it to learn the port.
	log.Printf("listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-sigCtx.Done():
	}
	stop() // second signal now kills the process outright

	log.Printf("draining: admission stopped, finishing in-flight requests (grace %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"lbe-serve: served %d queries in %d requests (%d coalesced batches); rejected %d full / %d draining\n",
		st.Searched, st.Accepted, st.Batches, st.RejectedQueue, st.RejectedDrain)
}
