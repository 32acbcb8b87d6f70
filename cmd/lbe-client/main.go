// Command lbe-client drives a running lbe-serve instance (or an
// lbe-router front-end — the surface is identical): it reads query
// spectra from an MS2 file, POSTs them to /search from concurrent
// closed-loop workers through the typed internal/api client, and reports
// per-query match counts. It exits non-zero if any request fails or
// (with -require-matches) if any query comes back empty, which makes it
// the assertion step of the CI serving smoke tests.
//
// Usage:
//
//	lbe-client -addr http://127.0.0.1:8417 -ms2 run.ms2 -n 20 -c 4 -require-matches
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lbe"
	"lbe/internal/api"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbe-client: ")

	var (
		addr    = flag.String("addr", "http://127.0.0.1:8417", "lbe-serve or lbe-router base URL")
		ms2In   = flag.String("ms2", "", "MS2 query file (required)")
		n       = flag.Int("n", 0, "spectra to send (0 = all)")
		workers = flag.Int("c", 4, "concurrent closed-loop clients")
		timeout = flag.Duration("timeout", 60*time.Second, "per-attempt request deadline")
		retries = flag.Int("retries", 2, "retries per request on transport errors and overload statuses")
		require = flag.Bool("require-matches", false, "exit non-zero if any query returns zero PSMs")
		quiet   = flag.Bool("q", false, "suppress per-query output")
	)
	flag.Parse()
	if *ms2In == "" {
		log.Fatal("-ms2 is required")
	}

	queries, err := lbe.ReadMS2(*ms2In)
	if err != nil {
		log.Fatal(err)
	}
	if *n > 0 && *n < len(queries) {
		queries = queries[:*n]
	}
	if len(queries) == 0 {
		log.Fatal("no spectra to send")
	}

	client := api.New(*addr)
	// One keep-alive connection per worker: with net/http's default of two
	// idle ones, every reply of a coalesced batch past the second closed
	// its connection and the worker's next request dialled a new one.
	client.HTTPClient = &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConnsPerHost: *workers,
	}}
	client.Timeout = *timeout
	client.Retries = *retries

	var (
		next    atomic.Int64
		empty   atomic.Int64
		matched atomic.Int64
		failed  atomic.Int64
		wg      sync.WaitGroup
	)
	ctx := context.Background()
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				q := queries[i]
				sr, err := client.SearchSpectra(ctx, api.FromExperimental(q))
				if err != nil {
					log.Printf("scan %d: %v", q.Scan, err)
					failed.Add(1)
					continue
				}
				if len(sr.Results) != 1 {
					log.Printf("scan %d: response carries %d results, want 1", q.Scan, len(sr.Results))
					failed.Add(1)
					continue
				}
				psms := sr.Results[0].PSMs
				if len(psms) == 0 {
					empty.Add(1)
					if !*quiet {
						fmt.Printf("scan %d: no match\n", q.Scan)
					}
					continue
				}
				matched.Add(1)
				if !*quiet {
					fmt.Printf("scan %d: %d PSMs, best %s score %.4f\n",
						q.Scan, len(psms), psms[0].Sequence, psms[0].Score)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	log.Printf("%d queries in %v (%.1f rps, %d workers): %d matched, %d empty, %d failed",
		len(queries), wall.Round(time.Millisecond),
		float64(len(queries))/wall.Seconds(), *workers,
		matched.Load(), empty.Load(), failed.Load())
	if failed.Load() > 0 {
		log.Fatalf("%d requests failed", failed.Load())
	}
	if *require && empty.Load() > 0 {
		log.Fatalf("%d queries returned zero PSMs with -require-matches set", empty.Load())
	}
	if *require && matched.Load() == 0 {
		log.Fatal("no query matched anything with -require-matches set")
	}
}
