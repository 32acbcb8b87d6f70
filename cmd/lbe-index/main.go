// Command lbe-index builds an SLM fragment-ion index over a peptide FASTA
// database. By default it reports the index dimensions and memory
// footprint — the numbers behind the paper's Fig. 5. With -out it instead
// builds a full partitioned session (grouping, policy partition, one
// parallel-built SLM index per shard, mapping table) and persists it as a
// store directory that lbe-serve -index and lbe-search -index warm-start
// from without rebuilding.
//
// Usage:
//
//	lbe-index -in peptides.fasta -max-mods 3                  # stats report
//	lbe-index -in proteins.fasta -digest -out store -ranks 4  # emit a session store
//	lbe-index -in proteins.fasta -digest -out cluster -ranks 4 -shard-sets 2
//	                                     # emit a partitioned cluster store
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"lbe"
	"lbe/internal/cliutil"
	"lbe/internal/mass"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbe-index: ")

	var (
		in       = flag.String("in", "", "input peptide FASTA (required)")
		doDigest = flag.Bool("digest", false, "treat -in as proteins and digest in-process")
		maxMods  = flag.Int("max-mods", cliutil.DefaultMaxMods, "maximum modified residues per peptide")
		resol    = flag.Float64("resolution", 0.01, "bucket resolution r (Da)")
		fragTol  = flag.Float64("frag-tol", 0.05, "fragment mass tolerance ∆F (Da)")
		precTol  = flag.String("prec-tol", "open", "precursor mass tolerance ∆M: e.g. 0.5Da, 20ppm, or open (paper default)")
		maxFrag  = flag.Float64("max-frag-mz", 2000, "instrument scan range upper bound (Da)")
		outDir   = flag.String("out", "", "emit a persistent session store into this directory instead of the stats report")
		ranks    = flag.Int("ranks", 4, "shards in the emitted store (with -out)")
		policy   = flag.String("policy", "cyclic", "distribution policy for the store: chunk|cyclic|random")
		seed     = flag.Int64("seed", 0, "seed for the random policy (with -out)")
		topK     = flag.Int("topk", 5, "PSMs reported per query by the stored session (with -out)")
		sets     = flag.Int("shard-sets", 0, "partition the emitted store into this many shard-sets for scatter/gather serving (with -out; 0 emits a whole store)")
	)
	flag.Parse()
	if *in == "" {
		log.Fatal("-in is required")
	}
	precursorTol, err := mass.ParseTolerance(*precTol)
	if err != nil {
		log.Fatal(err)
	}
	if *outDir == "" {
		// Mirror the -index flag discipline of lbe-serve/lbe-search:
		// refuse store-only flags loudly instead of silently ignoring
		// them in the stats report.
		if bad := cliutil.ExplicitlySet("ranks", "policy", "seed", "topk", "shard-sets"); len(bad) > 0 {
			log.Fatalf("-%s only applies with -out (it shapes the emitted store)", bad[0])
		}
	}

	recs, err := lbe.ReadFasta(*in)
	if err != nil {
		log.Fatal(err)
	}
	peptides := make([]string, len(recs))
	for i, r := range recs {
		peptides[i] = r.Sequence
	}
	if *doDigest {
		digested, err := cliutil.DigestPeptides(peptides)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("digested %d proteins into %d unique peptides", len(peptides), len(digested))
		peptides = digested
	}

	if *outDir != "" {
		emitStore(peptides, *outDir, *ranks, *policy, *seed, *topK, *maxMods, *resol, *fragTol, precursorTol, *maxFrag, *sets)
		return
	}

	params := lbe.DefaultSearchParams()
	params.Mods.MaxPerPep = *maxMods
	params.Resolution = *resol
	params.MaxFragmentMZ = *maxFrag
	params.FragmentTol.Value = *fragTol
	params.PrecursorTol = precursorTol

	start := time.Now()
	ix, err := lbe.BuildIndex(peptides, params)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("peptides:          %d\n", len(peptides))
	fmt.Printf("index rows:        %d (peptide variants / theoretical spectra)\n", ix.NumRows())
	fmt.Printf("fragment postings: %d\n", ix.NumIons())
	fmt.Printf("resident size:     %.2f MB\n", float64(ix.MemoryBytes())/(1<<20))
	fmt.Printf("build peak size:   %.2f MB\n", float64(ix.BuildPeakBytes())/(1<<20))
	fmt.Printf("build time:        %v\n", elapsed)
	if ix.NumRows() > 0 {
		perM := float64(ix.MemoryBytes()) / (1 << 30) / (float64(ix.NumRows()) / 1e6)
		fmt.Printf("GB per million spectra: %.4f (paper: 0.346 shared / 0.366 distributed)\n", perM)
	}
}

// emitStore builds a partitioned session with the same defaults lbe-serve
// uses and persists it, so a store built here and a session built there
// from the same inputs are interchangeable. With sets > 0 the store is
// emitted as a partitioned cluster (one self-contained shard-set store
// per set-NN directory plus cluster.json) for scatter/gather serving.
func emitStore(peptides []string, dir string, ranks int, policy string, seed int64, topK, maxMods int, resol, fragTol float64, precTol mass.Tolerance, maxFrag float64, sets int) {
	scfg := lbe.DefaultSessionConfig()
	scfg.Params.Mods.MaxPerPep = maxMods
	scfg.Params.Resolution = resol
	scfg.Params.MaxFragmentMZ = maxFrag
	scfg.Params.FragmentTol.Value = fragTol
	scfg.Params.PrecursorTol = precTol
	scfg.Seed = seed
	scfg.TopK = topK
	pol, err := lbe.ParsePolicy(policy)
	if err != nil {
		log.Fatal(err)
	}
	scfg.Policy = pol
	scfg.Shards = ranks

	buildStart := time.Now()
	sess, err := lbe.NewSession(peptides, scfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	buildTime := time.Since(buildStart)

	saveStart := time.Now()
	if sets > 0 {
		cm, err := sess.SavePartitioned(dir, peptides, sets)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cluster:    %s\n", dir)
		fmt.Printf("peptides:   %d\n", len(peptides))
		fmt.Printf("shards:     %d (%s policy) over %d shard-sets\n", sess.NumShards(), pol, cm.Sets)
		for i, sd := range cm.SetDirs {
			fmt.Printf("  set %02d:   %s  digest %s\n", i, sd, cm.SetDigests[i])
		}
		fmt.Printf("cluster digest: %s\n", cm.ClusterDigest)
		fmt.Printf("build time: %v\n", buildTime)
		fmt.Printf("save time:  %v\n", time.Since(saveStart))
		return
	}
	if err := sess.Save(dir, peptides); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store:      %s\n", dir)
	fmt.Printf("peptides:   %d\n", len(peptides))
	fmt.Printf("shards:     %d (%s policy)\n", sess.NumShards(), pol)
	fmt.Printf("groups:     %d\n", sess.Groups())
	fmt.Printf("index size: %.2f MB (+ %.2f KB mapping)\n",
		float64(sess.IndexBytes())/(1<<20), float64(sess.MappingBytes())/(1<<10))
	fmt.Printf("build time: %v\n", buildTime)
	fmt.Printf("save time:  %v\n", time.Since(saveStart))
}
