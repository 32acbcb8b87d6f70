package engine_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/oracle"
)

// TestTopKPushdownTiesAcrossShards is the adversarial case for the tie
// rule: the ties corpus's database of exact duplicates, so each of its
// three family queries' best score is shared by eight peptides spread
// over the shards and the cut falls inside the tie in every cell. Which
// of the tied PSMs are reported is decided by the global peptide index,
// which no worker knows — so a worker that broke the tie itself would
// report the wrong ones. The test also looks inside the cells of every
// query: one holding more than TopK entries has all but TopK-1 of them
// tied at the cut.
func TestTopKPushdownTiesAcrossShards(t *testing.T) {
	t.Parallel()
	c := oracle.CellOf(t, "ties", "open-all")
	peptides, queries := c.Corpus.Peptides, c.Corpus.Queries

	for _, topK := range []int{1, 3, 10} {
		cfg := c.Config()
		cfg.TopK = topK
		serial, err := engine.RunSerial(peptides, queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for q, ps := range serial.PSMs[:3] { // the family queries
			if len(ps) != topK || (topK <= 8 && ps[0].Score != ps[topK-1].Score) {
				t.Fatalf("topk=%d query %d: serial reports %d PSMs %+v; want the cut inside a tie", topK, q, len(ps), ps)
			}
		}
		crowded := 0 // cells holding more than TopK entries
		for _, policy := range []core.Policy{core.Chunk, core.Cyclic, core.Random, core.RandomWithinGroups} {
			for _, shards := range []int{2, 4} {
				for seed := int64(1); seed <= 3; seed++ {
					label := fmt.Sprintf("topk=%d/%v/shards=%d/seed=%d", topK, policy, shards, seed)
					scfg := engine.SessionConfig{Config: cfg, Shards: shards}
					scfg.Policy = policy
					scfg.Seed = seed
					scfg.ThreadsPerRank = 2
					sess, err := engine.NewSession(peptides, scfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := sess.Search(context.Background(), queries)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					oracle.PSMs(t, label, res.PSMs, serial.PSMs, false)

					cells, err := sess.SearchCells(context.Background(), queries)
					if err != nil {
						t.Fatal(err)
					}
					for s := range cells {
						for q, cell := range cells[s] {
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
