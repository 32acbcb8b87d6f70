package engine

import (
	"context"
	"fmt"
	"testing"

	"lbe/internal/core"
	"lbe/internal/mass"
)

// TestWindowedSearchMatchesFullScan is the engine-level equivalence gate
// for the precursor-windowed kernel: across policies × shard counts ×
// tolerances (narrow absolute, ppm, wider than the mass range, and fully
// open) a session's PSMs must be byte-identical with windowing forced off.
func TestWindowedSearchMatchesFullScan(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 40)
	ctx := context.Background()
	for _, tol := range []mass.Tolerance{mass.Da(0.5), mass.Ppm(30), mass.Da(1e7), mass.Open()} {
		for _, policy := range []core.Policy{core.Chunk, core.RandomWithinGroups} {
			for _, shards := range []int{1, 3} {
				label := fmt.Sprintf("tol=%+v/%v/shards=%d", tol, policy, shards)
				cfg := SessionConfig{Config: lightConfig(), Shards: shards}
				cfg.Params.PrecursorTol = tol
				cfg.Policy = policy
				cfg.Seed = 11
				sess, err := NewSession(peptides, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				windowed, err := sess.Search(ctx, queries)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sess.SetFullScan(true)
				full, err := sess.Search(ctx, queries)
				if err != nil {
					t.Fatalf("%s: full scan: %v", label, err)
				}
				requireIdenticalPSMs(t, label, full.PSMs, windowed.PSMs)
				if full.CandidatePSMs() != windowed.CandidatePSMs() {
					t.Fatalf("%s: scored %d windowed vs %d full", label,
						windowed.CandidatePSMs(), full.CandidatePSMs())
				}
				sess.Close()
			}
		}
	}
}
