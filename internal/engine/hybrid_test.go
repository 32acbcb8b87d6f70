package engine_test

import (
	"context"
	"testing"

	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/oracle"
	"lbe/internal/stats"
)

// TestWeightedBalancesHeterogeneousCluster simulates a cluster where rank
// 0 is 4x faster: with uniform partitioning the modeled per-rank times
// (work divided by speed) are imbalanced; weighted partitioning fixes it.
func TestWeightedBalancesHeterogeneousCluster(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	speeds := []float64{4, 1, 1, 1}

	modeledLI := func(weights []float64) float64 {
		cfg := c.Config()
		cfg.Policy = core.Cyclic
		cfg.Weights = weights
		sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: cfg, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Search(context.Background(), c.Corpus.Queries)
		if err != nil {
			t.Fatal(err)
		}
		wu := engine.WorkUnits(res.Stats)
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
	c := oracle.CellOf(t, "generated", "open-all")
	cfg := c.Config()
	cfg.Weights = []float64{1, 2}
	if sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: cfg, Shards: 4}); err == nil {
		sess.Close()
		t.Error("mismatched weights must fail")
	}
}

// TestBatchSizeWithNoQueries: a batched search of an empty query set
// returns no PSMs and every shard's stats.
func TestBatchSizeWithNoQueries(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	cfg := c.Config()
	cfg.BatchSize = 8
	sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: cfg, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PSMs) != 0 || len(res.Stats) != 3 {
		t.Errorf("empty batched run: %+v", res)
	}
}
