package engine

import (
	"context"
	"fmt"
	"testing"

	"lbe/internal/core"
	"lbe/internal/mass"
)

// TestWindowedSearchMatchesFilteredOpen is the engine-level gate for the
// precursor-windowed kernel: across policies × shard counts × tolerances
// (narrow absolute, ppm, wider than the mass range, and fully open) a
// session's PSMs must be exactly an open session's PSMs that the
// tolerance admits (lightConfig keeps TopK 0, so nothing is cut).
func TestWindowedSearchMatchesFilteredOpen(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 40)
	ctx := context.Background()
	search := func(cfg SessionConfig) *Result {
		t.Helper()
		sess, err := NewSession(peptides, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Search(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, policy := range []core.Policy{core.Chunk, core.RandomWithinGroups} {
		for _, shards := range []int{1, 3} {
			cfg := SessionConfig{Config: lightConfig(), Shards: shards}
			cfg.Policy = policy
			cfg.Seed = 11
			cfg.Params.PrecursorTol = mass.Open()
			open := search(cfg)
			for _, tol := range []mass.Tolerance{mass.Da(0.5), mass.Ppm(30), mass.Da(1e7), mass.Open()} {
				label := fmt.Sprintf("tol=%+v/%v/shards=%d", tol, policy, shards)
				cfg.Params.PrecursorTol = tol
				want := make([][]PSM, len(queries))
				for q, ms := range open.PSMs {
					for _, m := range ms {
						if tol.Contains(queries[q].PrecursorMass(), m.Precursor) {
							want[q] = append(want[q], m)
						}
					}
				}
				requireIdenticalPSMs(t, label, search(cfg).PSMs, want)
			}
		}
	}
}
