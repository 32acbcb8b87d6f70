// Tcpcluster runs the distributed search over real TCP links using the
// multi-process bootstrap protocol: a coordinator (rank 0) and workers
// that join it, exactly as separate machines would. Here all ranks live in
// one process for convenience; point workers at a remote address to span
// hosts. (For single-host serving, prefer the Session API —
// see examples/quickstart; every rank below is a one-shard Session
// behind its endpoint.)
//
//	go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"lbe"
)

const (
	coordAddr = "127.0.0.1:40917"
	ranks     = 4
)

func main() {
	// Dataset: every rank must load identical inputs (paper §III-E: all
	// machines read the clustered database and the MS2 dataset).
	pcfg := lbe.DefaultProteomeConfig()
	pcfg.NumFamilies = 30
	recs, err := lbe.GenerateProteome(pcfg)
	if err != nil {
		log.Fatal(err)
	}
	proteins := make([]string, len(recs))
	for i, r := range recs {
		proteins[i] = r.Sequence
	}
	peps, err := lbe.Digest(lbe.DefaultDigestConfig(), proteins)
	if err != nil {
		log.Fatal(err)
	}
	peptides := lbe.PeptideSequences(lbe.Dedup(peps))

	scfg := lbe.DefaultSpectraConfig()
	scfg.NumSpectra = 150
	queries, _, err := lbe.GenerateSpectra(peptides, scfg)
	if err != nil {
		log.Fatal(err)
	}

	cfg := lbe.DefaultEngineConfig()
	cfg.Params.Mods.MaxPerPep = 1
	cfg.TopK = 3

	// Bootstrap: one goroutine hosts, the rest join — each stands in for
	// a separate OS process / machine.
	var wg sync.WaitGroup
	var result *lbe.Result
	errs := make([]error, ranks)

	runRank := func(idx int, comm lbe.Comm, err error) {
		defer wg.Done()
		if err != nil {
			errs[idx] = err
			return
		}
		defer comm.Close()
		res, err := lbe.RunRank(context.Background(), comm, peptides, queries, cfg)
		if err != nil {
			errs[idx] = err
			return
		}
		if comm.Rank() == 0 {
			result = res
		}
	}

	start := time.Now()
	wg.Add(ranks)
	go func() {
		comm, err := lbe.HostTCP(coordAddr, ranks)
		runRank(0, comm, err)
	}()
	for i := 1; i < ranks; i++ {
		go func(i int) {
			comm, err := lbe.JoinTCP(coordAddr)
			runRank(i, comm, err)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			log.Fatalf("rank %d: %v", i, err)
		}
	}

	fmt.Printf("TCP cluster of %d ranks searched %d spectra in %v\n",
		ranks, len(queries), time.Since(start).Round(time.Millisecond))
	wu := lbe.WorkUnits(result.Stats)
	fmt.Printf("load imbalance: %.2f%%; candidate PSMs: %d\n",
		100*lbe.LoadImbalance(wu), result.CandidatePSMs())
	n := 0
	for _, psms := range result.PSMs {
		n += len(psms)
	}
	fmt.Printf("reported PSMs: %d across %d queries\n", n, len(result.PSMs))
}
