package slm

import (
	"context"
	"math/rand"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// benchKernel times warm Index.Search over a fixed seeded index (6 000
// random peptides, two variable mods per peptide: ~100 k rows, so the
// accumulator is larger than L2 as it is in production shards), with its
// row view built as a serving session builds it, and reports
// the phase-1 unit cost as ns/posting — wall time over Work.IonHits, the
// same ratio the repository benchmark prints as slm.ns_per_posting.
func benchKernel(b *testing.B, tol mass.Tolerance) {
	rng := rand.New(rand.NewSource(20190521))
	peps := make([]string, 6000)
	for i := range peps {
		peps[i] = randPeptide(rng, 7, 24)
	}
	params := DefaultParams()
	params.Mods.MaxPerPep = 2
	params.PrecursorTol = tol
	ix, err := Build(peps, params)
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.BuildRowView(context.Background()); err != nil {
		b.Fatal(err)
	}
	qs := make([]spectrum.Experimental, 64)
	for i := range qs {
		qs[i] = spectrum.Preprocess(noisyQuery(rng, peps[rng.Intn(len(peps))]), params.MaxQueryPeaks)
	}
	var scratch Scratch
	ix.Search(qs[0], 0, &scratch) // warm buffers

	var postings, scored int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			scratch.query.Prepare(q, ix.params)
			_, w := ix.SearchQuery(&scratch.query, 10, &scratch)
			postings += w.IonHits
			scored += w.Scored
		}
	}
	b.StopTimer()
	if postings == 0 || scored == 0 {
		b.Fatalf("degenerate workload: %d postings, %d scored over %d rows", postings, scored, ix.NumRows())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
	b.ReportMetric(float64(postings)/float64(b.N*len(qs)), "postings/query")
}

// BenchmarkSearchOpen is the open-search kernel: the flattened full scan.
func BenchmarkSearchOpen(b *testing.B) { benchKernel(b, mass.Open()) }

// BenchmarkSearchNarrow is the 0.5 Da kernel: a few dozen rows per cut
// band, which the row scan reads in row order, and per-call overhead.
func BenchmarkSearchNarrow(b *testing.B) { benchKernel(b, mass.Da(0.5)) }

// BenchmarkSearchWide is a 20 Da window: hundreds of rows per cut band,
// more postings than the per-bucket walk's probes are worth, so the rule
// picks the walk there.
func BenchmarkSearchWide(b *testing.B) { benchKernel(b, mass.Da(20)) }
