package engine

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"lbe/internal/core"
	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// theoreticalQuery is seq's own fragment ladder as a query spectrum.
func theoreticalQuery(t *testing.T, scan int, seq string) spectrum.Experimental {
	t.Helper()
	th, err := spectrum.Predict(seq)
	if err != nil {
		t.Fatal(err)
	}
	q := spectrum.Experimental{Scan: scan, PrecursorMZ: mass.MZ(th.Precursor, 2), Charge: 2}
	for i, ion := range th.Ions {
		q.Peaks = append(q.Peaks, spectrum.Peak{MZ: ion, Intensity: float64(1 + i%4)})
	}
	q.SortPeaks()
	return q
}

// duplicatesDataset is a database of exact duplicates — three sequences,
// eight copies each — queried with each sequence's own fragment ladder, so
// every query's best score is shared by eight peptides.
func duplicatesDataset(t *testing.T) ([]string, []spectrum.Experimental) {
	t.Helper()
	family := []string{"LGEYGFQNALIVR", "LGEYGFQNAIIVR", "VGEYGFQNALIVR"}
	var peptides []string
	var queries []spectrum.Experimental
	for copies := 0; copies < 8; copies++ {
		peptides = append(peptides, family...)
	}
	for i, seq := range family {
		queries = append(queries, theoreticalQuery(t, i+1, seq))
	}
	return peptides, queries
}

// TestTopKPushdownTiesAcrossShards is the adversarial case for the tie
// rule: a database of exact duplicates, so every query's best score is
// shared by eight peptides spread over the shards and the cut falls
// inside the tie in every cell. Which of the tied PSMs are reported is
// decided by the global peptide index, which no worker knows — so a
// worker that broke the tie itself would report the wrong ones. The test
// also looks inside the cells: they must hold more than TopK entries, all
// but TopK-1 of them tied at the cut.
func TestTopKPushdownTiesAcrossShards(t *testing.T) {
	t.Parallel()
	peptides, queries := duplicatesDataset(t)

	for _, topK := range []int{1, 3, 10} {
		cfg := lightConfig()
		cfg.TopK = topK
		serial, err := RunSerial(peptides, queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for q, ps := range serial.PSMs {
			if len(ps) != topK || (topK <= 8 && ps[0].Score != ps[topK-1].Score) {
				t.Fatalf("topk=%d query %d: serial reports %d PSMs %+v; want the cut inside a tie", topK, q, len(ps), ps)
			}
		}
		crowded := 0 // cells holding more than TopK entries
		for _, policy := range []core.Policy{core.Chunk, core.Cyclic, core.Random, core.RandomWithinGroups} {
			for _, shards := range []int{2, 4} {
				for seed := int64(1); seed <= 3; seed++ {
					label := fmt.Sprintf("topk=%d/%v/shards=%d/seed=%d", topK, policy, shards, seed)
					scfg := SessionConfig{Config: cfg, Shards: shards}
					scfg.Policy = policy
					scfg.Seed = seed
					scfg.ThreadsPerRank = 2
					sess, err := NewSession(peptides, scfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := sess.Search(context.Background(), queries)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSamePSMs(t, label, res.PSMs, serial.PSMs)

					cells, err := sess.pool.Run(context.Background(), sess.shards, new(queryBuffers).prepare(queries, cfg.Params))
					if err != nil {
						t.Fatal(err)
					}
					for s := range cells.Matches {
						for q, cell := range cells.Matches[s] {
							if len(cell) <= topK {
								continue
							}
							crowded++
							scores := make([]float64, len(cell))
							for i, m := range cell {
								scores[i] = m.Score
							}
							sort.Float64s(scores)
							if tied := len(cell) - topK + 1; scores[0] != scores[tied-1] {
								t.Fatalf("%s shard %d query %d: cell of %d holds entries below the tie at its cut: %v", label, s, q, len(cell), scores)
							}
						}
					}
					sess.Close()
				}
			}
		}
		if crowded == 0 && topK < 8 {
			t.Fatalf("topk=%d: no cell kept more than TopK entries; the tie rule went untested", topK)
		}
	}
}
