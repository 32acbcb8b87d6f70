// Command lbe-router runs the multi-node serving front-end: it fans
// POST /search requests over a set of lbe-serve replicas with
// least-loaded dispatch driven by the replicas' /stats telemetry,
// periodic health probing, automatic failover onto another replica when
// an attempt fails, and a consistency gate that refuses to mix replicas
// whose store digests differ. It serves the same /search, /healthz,
// /stats and /metrics surface as a replica, so lbe-client works
// unchanged through it.
//
// The replicas may equally be holders of a partitioned store's
// shard-sets (lbe-index -shard-sets): every /search fans out to one
// healthy holder per set and the per-set top-K results are merged into
// the bytes a whole-store session would return. The topology is
// discovered from the holders' /healthz announcements — whole-store
// replicas are the one-set case — so no configuration beyond the
// replica list is needed.
//
// Usage:
//
//	lbe-router -addr :8420 -replicas http://10.0.0.1:8417,http://10.0.0.2:8417
//	lbe-router -addr :8420 -replicas-file replicas.txt -probe 1s -retries 2
//	lbe-router -addr :8420 -replicas-file holders.txt
//
// The replicas file lists one base URL per line; blank lines and lines
// starting with '#' are ignored.
//
// The first SIGINT/SIGTERM drains gracefully: admission stops (503) and
// in-flight proxied requests complete. A second signal kills the
// process.
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
	"strings"
	"syscall"
	"time"

	"lbe/internal/router"
)

// replicaList merges the -replicas flag and -replicas-file contents.
func replicaList(csv, file string) ([]string, error) {
	var out []string
	for _, u := range strings.Split(csv, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			out = append(out, line)
		}
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbe-router: ")

	var (
		addr     = flag.String("addr", ":8420", "listen address (host:port; port 0 picks a free port)")
		replicas = flag.String("replicas", "", "comma-separated lbe-serve base URLs")
		repFile  = flag.String("replicas-file", "", "file with one replica base URL per line (# comments)")
		probe    = flag.Duration("probe", 2*time.Second, "health/stats probe interval")
		probeTO  = flag.Duration("probe-timeout", time.Second, "per-probe deadline")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-attempt deadline for proxied /search requests")
		retries  = flag.Int("retries", 1, "failover retries: extra replicas a failed request may try")
		stale    = flag.Duration("stale", 0, "load snapshot age beyond which dispatch falls back to round-robin (0 = 3x probe interval)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown grace period")
		cacheB   = flag.Int64("cache-bytes", 64<<20, "merged-response cache byte budget (0 disables caching)")
	)
	flag.Parse()

	urls, err := replicaList(*replicas, *repFile)
	if err != nil {
		log.Fatal(err)
	}
	if len(urls) == 0 {
		log.Fatal("-replicas or -replicas-file is required")
	}

	rt, err := router.New(urls, router.Config{
		ProbeInterval:   *probe,
		ProbeTimeout:    *probeTO,
		RequestTimeout:  *timeout,
		FailoverRetries: *retries,
		StatsStaleAfter: *stale,
		CacheBytes:      *cacheB,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := rt.Stats()
	healthy := 0
	for _, r := range st.Replicas {
		state := "down"
		switch {
		case r.Healthy && r.DigestMismatch:
			state = "digest mismatch (excluded)"
		case r.Healthy:
			state = "healthy"
			healthy++
		}
		if r.ShardSet != nil {
			state = fmt.Sprintf("%s, shard-set %d/%d", state, r.ShardSet.Set, r.ShardSet.Sets)
		}
		log.Printf("replica %s: %s", r.URL, state)
	}
	log.Printf("routing over %d replicas (%d healthy), digest %.12s", len(urls), healthy, st.Digest)
	if sc := st.Scatter; sc != nil {
		log.Printf("discovered %d shard-sets (%d covered, %d total shards)", sc.Sets, sc.Covered, sc.TotalShards)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: rt.Handler()}
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
	if err := rt.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	st = rt.Stats()
	fmt.Fprintf(os.Stderr,
		"lbe-router: routed %d requests (%d failovers); rejected %d no-replica / %d draining\n",
		st.Routed, st.Failovers, st.RejectedNoReplica, st.RejectedDrain)
}
