// Distributed runs a complete LBE search over an 8-shard Session:
// synthetic proteome, tryptic digestion, grouping, cyclic partitioning,
// per-shard partial indexes, batched concurrent querying, and merging
// through the O(1) mapping table (paper Figs. 3 and 4).
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"lbe"
)

func main() {
	const ranks = 8

	pcfg := lbe.DefaultProteomeConfig()
	pcfg.NumFamilies = 80
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
	scfg.NumSpectra = 400
	queries, truth, err := lbe.GenerateSpectra(peptides, scfg)
	if err != nil {
		log.Fatal(err)
	}

	cfg := lbe.DefaultEngineConfig()
	cfg.Params.Mods.MaxPerPep = 1
	cfg.TopK = 5
	cfg.BatchSize = 64 // queries preprocessed, searched and merged at a time

	start := time.Now()
	sess, err := lbe.NewSession(peptides, lbe.SessionConfig{Config: cfg, Shards: ranks})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search(context.Background(), queries)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	fmt.Printf("searched %d spectra against %d peptides on %d shards in %v\n",
		len(queries), len(peptides), ranks, wall.Round(time.Millisecond))
	fmt.Printf("LBE formed %d groups; mapping table %d KB; %d candidate PSMs scored\n\n",
		res.Groups, res.MappingBytes/1024, res.CandidatePSMs())

	fmt.Printf("%-5s %9s %9s %12s %13s\n", "shard", "peptides", "rows", "index MB", "work units")
	for _, s := range res.Stats {
		fmt.Printf("%-5d %9d %9d %12.2f %13d\n",
			s.Rank, s.Peptides, s.Rows, float64(s.IndexBytes)/(1<<20),
			s.Work.IonHits+s.Work.Scored)
	}
	wu := lbe.WorkUnits(res.Stats)
	fmt.Printf("\nload imbalance (Eq. 1): %.2f%%\n", 100*lbe.LoadImbalance(wu))

	hit := 0
	for q := range queries {
		for _, p := range res.PSMs[q] {
			if int(p.Peptide) == truth[q].Peptide {
				hit++
				break
			}
		}
	}
	fmt.Printf("top-%d identification rate: %.1f%% (%d/%d)\n",
		cfg.TopK, 100*float64(hit)/float64(len(queries)), hit, len(queries))
}
