// Quickstart: digest a few proteins, build a search Session
// over a 4-shard LBE partition, and identify one noisy query spectrum.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"lbe"
)

func main() {
	// A toy protein database. In real use, load UniProt with lbe.ReadFasta.
	proteins := []string{
		"MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPFDEHVK",
		"MALWMRLLPLLALLALWGPDPAAAFVNQHLCGSHLVEALYLVCGERGFFYTPKTRREAEDLQVGQVELGG",
		"MTEYKLVVVGAGGVGKSALTIQLIQNHFVDEYDPTIEDSYRKQVVIDGETCLLDILDTAGQEEYSAMRDQ",
	}

	// In-silico tryptic digestion with the paper's settings.
	peps, err := lbe.Digest(lbe.DefaultDigestConfig(), proteins)
	if err != nil {
		log.Fatal(err)
	}
	peps = lbe.Dedup(peps)
	peptides := lbe.PeptideSequences(peps)
	fmt.Printf("digested %d proteins into %d unique peptides\n", len(proteins), len(peptides))

	// Sample one synthetic query spectrum from the database (a stand-in
	// for reading an instrument run with lbe.ReadMS2).
	scfg := lbe.DefaultSpectraConfig()
	scfg.NumSpectra = 1
	queries, truth, err := lbe.GenerateSpectra(peptides, scfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query spectrum: %d peaks, precursor m/z %.4f (true peptide: %s)\n",
		len(queries[0].Peaks), queries[0].PrecursorMZ, peptides[truth[0].Peptide])

	// Build the search engine once: LBE grouping, cyclic partitioning
	// into 4 shards, one partial index per shard. The Session then serves
	// any number of query batches without rebuilding.
	sesscfg := lbe.DefaultSessionConfig()
	sesscfg.TopK = 3
	sesscfg.Shards = 4
	sess, err := lbe.NewSession(peptides, sesscfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	res, err := sess.Search(context.Background(), queries)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("top matches:")
	for i, p := range res.PSMs[0] {
		marker := ""
		if int(p.Peptide) == truth[0].Peptide {
			marker = "   <- correct"
		}
		fmt.Printf("  %d. %-24s shared=%2d score=%7.3f (from shard %d)%s\n",
			i+1, peptides[p.Peptide], p.Shared, p.Score, p.Origin, marker)
	}
	fmt.Printf("session served %d queries over %d shards (reusable for the next batch)\n",
		sess.Searched(), sess.NumShards())
}
