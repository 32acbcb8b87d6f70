// Top-level microbenchmarks of the hot paths behind the paper's figures.
// The figures themselves are pure functions of their options, pinned by
// the committed docs/figures/BENCH_<id>.json files and regenerated by
// cmd/lbe-bench; the numbers PRs are gated on come from ./benchmark.
package lbe_test

import (
	"testing"

	"lbe/internal/bench"
	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/mods"
)

// BenchmarkIndexBuild measures serial SLM index construction throughput
// (the build every rank runs over its partition).
func BenchmarkIndexBuild(b *testing.B) {
	c, err := bench.SizedCorpus(3000, 0, 11, mods.Config{Mods: mods.PaperSet(), MaxPerPep: 2})
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Params.Mods.MaxPerPep = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunSerial(c.Peptides, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryThroughput measures spectra searched per second against a
// fixed serial index (the per-rank inner loop whose work Fig. 7 counts).
func BenchmarkQueryThroughput(b *testing.B) {
	c, err := bench.SizedCorpus(3000, 64, 12, mods.Config{Mods: mods.PaperSet(), MaxPerPep: 2})
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Params.Mods.MaxPerPep = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunSerial(c.Peptides, c.Queries, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrouping measures Algorithm 1 over a realistic peptide set
// (the serial phase every rank replicates before its build).
func BenchmarkGrouping(b *testing.B) {
	c, err := bench.SizedCorpus(5000, 0, 13, mods.Config{Mods: mods.PaperSet(), MaxPerPep: 2})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultGroupConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Group(c.Peptides, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
