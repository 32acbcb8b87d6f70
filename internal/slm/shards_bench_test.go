package slm_test

import (
	"context"
	"testing"

	"lbe/internal/bench"
	"lbe/internal/mass"
	"lbe/internal/mods"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// BenchmarkSearchNarrowShards is the 0.5 Da kernel in the repository
// benchmark's cache regime: 4 shards of over 100 k rows each (the
// benchmark's mods, its peptides dealt out cyclically), row views built,
// and each prepared query searched against every shard, as a session's
// workers search it. A shard's offsets rows and prefix row do not fit in
// L2 here, as they do on BenchmarkSearchNarrow's one index, so per-query
// reads of them show. It reports wall time per query (all four shards)
// and per posting.
func BenchmarkSearchNarrowShards(b *testing.B) {
	const shards = 4
	modCfg := mods.Config{Mods: mods.PaperSet(), MaxPerPep: 2}
	c, err := bench.SizedCorpus(shards*105_000, 256, 7, modCfg)
	if err != nil {
		b.Fatal(err)
	}
	params := slm.DefaultParams()
	params.Mods = modCfg
	params.PrecursorTol = mass.Da(0.5)
	local := make([][]string, shards)
	for i, p := range c.Peptides {
		local[i%shards] = append(local[i%shards], p)
	}
	indexes := make([]*slm.Index, shards)
	for s := range indexes {
		ix, err := slm.Build(local[s], params)
		if err != nil {
			b.Fatal(err)
		}
		if ix.NumRows() < 100_000 {
			b.Fatalf("shard %d holds %d rows, want at least 100 000", s, ix.NumRows())
		}
		if err := ix.BuildRowView(context.Background()); err != nil {
			b.Fatal(err)
		}
		indexes[s] = ix
	}
	qs := make([]slm.Query, len(c.Queries))
	for i, e := range c.Queries {
		qs[i].Prepare(spectrum.Preprocess(e, params.MaxQueryPeaks), params)
	}
	var scratch slm.Scratch
	for _, ix := range indexes {
		ix.SearchQuery(&qs[0], 10, &scratch) // warm buffers
	}

	var postings, scored int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := range qs {
			for _, ix := range indexes {
				_, w := ix.SearchQuery(&qs[q], 10, &scratch)
				postings += w.IonHits
				scored += w.Scored
			}
		}
	}
	b.StopTimer()
	if postings == 0 || scored == 0 {
		b.Fatalf("degenerate workload: %d postings, %d scored", postings, scored)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
}
