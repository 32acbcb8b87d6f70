package engine

import (
	"context"
	"testing"

	"lbe/internal/core"
	"lbe/internal/stats"
)

// TestThreadsPerRankResultsInvariant: the hybrid intra-rank parallelism
// (§VIII) must not change results or total work for any thread count.
func TestThreadsPerRankResultsInvariant(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 40)
	base := lightConfig()
	ref, err := RunInProcess(context.Background(), 3, peptides, queries, base)
	if err != nil {
		t.Fatal(err)
	}
	want := psmSet(ref.PSMs)

	for _, threads := range []int{2, 4, 9} {
		cfg := base
		cfg.ThreadsPerRank = threads
		res, err := RunInProcess(context.Background(), 3, peptides, queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := psmSet(res.PSMs)
		if len(got) != len(want) {
			t.Fatalf("threads=%d: %d PSMs vs %d", threads, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("threads=%d: PSM %s count %d vs %d", threads, k, got[k], n)
			}
		}
		if res.CandidatePSMs() != ref.CandidatePSMs() {
			t.Fatalf("threads=%d: work changed: %d vs %d",
				threads, res.CandidatePSMs(), ref.CandidatePSMs())
		}
	}
}

// TestWeightedEngineResultsInvariant: heterogeneous weighted partitioning
// must redistribute data without changing the merged results.
func TestWeightedEngineResultsInvariant(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 40)
	cfg := lightConfig()
	serial, err := RunSerial(peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := psmSet(serial.PSMs)

	cfg.Weights = []float64{4, 2, 1, 1}
	for _, policy := range []core.Policy{core.Chunk, core.Cyclic} {
		cfg.Policy = policy
		res, err := RunInProcess(context.Background(), 4, peptides, queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := psmSet(res.PSMs)
		if len(got) != len(want) {
			t.Fatalf("%v: %d PSMs vs serial %d", policy, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("%v: PSM %s count %d vs %d", policy, k, got[k], n)
			}
		}
	}
}

// TestWeightedBalancesHeterogeneousCluster simulates a cluster where rank
// 0 is 4x faster: with uniform partitioning the modeled per-rank times
// (work divided by speed) are imbalanced; weighted partitioning fixes it.
func TestWeightedBalancesHeterogeneousCluster(t *testing.T) {
	peptides, queries, _ := testDataset(t, 12, 3, 150)
	speeds := []float64{4, 1, 1, 1}

	modeledLI := func(weights []float64) float64 {
		cfg := lightConfig()
		cfg.Policy = core.Cyclic
		cfg.Weights = weights
		res, err := RunInProcess(context.Background(), 4, peptides, queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wu := WorkUnits(res.Stats)
		times := make([]float64, len(wu))
		for i := range wu {
			times[i] = wu[i] / speeds[i] // modeled wall time on machine i
		}
		return stats.LoadImbalance(times)
	}

	uniform := modeledLI(nil)
	weighted := modeledLI(speeds)
	t.Logf("heterogeneous modeled LI: uniform=%.3f weighted=%.3f", uniform, weighted)
	if weighted >= uniform {
		t.Errorf("weighted LI %.3f not better than uniform %.3f", weighted, uniform)
	}
	if weighted > 0.15 {
		t.Errorf("weighted LI %.3f too high", weighted)
	}
}

// TestWeightsLengthMismatch: a weights vector of the wrong length must be
// rejected before any work starts.
func TestWeightsLengthMismatch(t *testing.T) {
	peptides, queries, _ := testDataset(t, 4, 1, 5)
	cfg := lightConfig()
	cfg.Weights = []float64{1, 2}
	if _, err := RunInProcess(context.Background(), 4, peptides, queries, cfg); err == nil {
		t.Error("mismatched weights must fail")
	}
}

// TestBatchSizeStreamingInvariant: streaming workers' results in slabs
// must not change the merged PSMs or the work accounting, for any batch
// size including degenerate ones.
func TestBatchSizeStreamingInvariant(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 37)
	base := lightConfig()
	ref, err := RunInProcess(context.Background(), 4, peptides, queries, base)
	if err != nil {
		t.Fatal(err)
	}
	want := psmSet(ref.PSMs)
	for _, batch := range []int{1, 7, 36, 37, 1000} {
		cfg := base
		cfg.BatchSize = batch
		res, err := RunInProcess(context.Background(), 4, peptides, queries, cfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		got := psmSet(res.PSMs)
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d PSMs vs %d", batch, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("batch=%d: PSM %s count %d vs %d", batch, k, got[k], n)
			}
		}
		if res.CandidatePSMs() != ref.CandidatePSMs() {
			t.Fatalf("batch=%d: work changed", batch)
		}
	}
}

// TestBatchSizeWithNoQueries: streaming mode with an empty query set
// must not deadlock the exchange.
func TestBatchSizeWithNoQueries(t *testing.T) {
	peptides, _, _ := testDataset(t, 4, 1, 0)
	cfg := lightConfig()
	cfg.BatchSize = 8
	res, err := RunInProcess(context.Background(), 3, peptides, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PSMs) != 0 || len(res.Stats) != 3 {
		t.Errorf("empty streaming run: %+v", res)
	}
}

// TestBatchSizeOverTCP: streaming must also work over the wire.
func TestBatchSizeOverTCP(t *testing.T) {
	peptides, queries, _ := testDataset(t, 5, 1, 12)
	cfg := lightConfig()
	cfg.BatchSize = 3
	a, err := RunInProcess(context.Background(), 3, peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOverTCP(context.Background(), 3, peptides, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := psmSet(a.PSMs), psmSet(b.PSMs)
	if len(sa) != len(sb) {
		t.Fatalf("streaming TCP differs: %d vs %d", len(sa), len(sb))
	}
	for k, n := range sa {
		if sb[k] != n {
			t.Fatalf("PSM %s: %d vs %d", k, n, sb[k])
		}
	}
}
