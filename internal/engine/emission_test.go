package engine_test

import (
	"context"
	"slices"
	"testing"

	"lbe/internal/engine"
	"lbe/internal/oracle"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// TestMergeIgnoresEmissionOrder: an index emits a cell's matches in the
// order they reach the shared-peak threshold, which the band layout
// decides, so no answer may depend on it. On every oracle cell, a
// three-shard session's (shard, query) cells merged as emitted and merged
// with every cell reversed give exactly the PSMs Search gives.
func TestMergeIgnoresEmissionOrder(t *testing.T) {
	ctx := context.Background()
	reordered := 0
	for _, cell := range oracle.Cells(t) {
		t.Run(cell.Name(), func(t *testing.T) {
			qs := cell.Corpus.Queries
			sess, err := engine.NewSession(cell.Corpus.Peptides, engine.SessionConfig{Config: cell.Config(), Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			res, err := sess.Search(ctx, qs)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := sess.SearchCells(ctx, qs)
			if err != nil {
				t.Fatal(err)
			}
			emitted, err := sess.MergeCells(cells, len(qs))
			if err != nil {
				t.Fatal(err)
			}
			oracle.PSMs(t, "cells as emitted", emitted, res.PSMs, true)
			for _, shard := range cells {
				for _, ms := range shard {
					if len(ms) > 1 && ms[0] != ms[len(ms)-1] {
						reordered++
					}
					slices.Reverse(ms)
				}
			}
			reversed, err := sess.MergeCells(cells, len(qs))
			if err != nil {
				t.Fatal(err)
			}
			oracle.PSMs(t, "every cell reversed", reversed, res.PSMs, true)
		})
	}
	if reordered == 0 {
		t.Error("no cell held two distinct matches; reversing changed nothing")
	}
}

// TestTwinEmittedInThresholdOrder confirms what the ties corpus says of
// its twin query (internal/oracle): its index is one band, in which the
// oxidized MPEPTIDER row, heavier, is hit alone by the query's lowest peak
// and so reaches the threshold first, and the index emits it first; the
// engine's answer lists it second, by ComparePSM's precursor key alone.
func TestTwinEmittedInThresholdOrder(t *testing.T) {
	ties := oracle.CellOf(t, "ties", "open-all")
	peptides, cfg := ties.Corpus.Peptides, ties.Config()
	twin := uint32(len(peptides) - 1)
	if peptides[twin] != "MPEPTIDER" {
		t.Fatalf("the ties corpus ends in %q, want the MPEPTIDER twin", peptides[twin])
	}
	ix, err := slm.Build(peptides, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumRows() > 1<<16 {
		t.Fatalf("%d rows: more than one band", ix.NumRows())
	}
	sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Search(context.Background(), ties.Corpus.Queries)
	if err != nil {
		t.Fatal(err)
	}
	qs := spectrum.PreprocessAll(ties.Corpus.Queries, cfg.Params.MaxQueryPeaks)
	found := 0
	for qi, q := range qs {
		all, _ := ix.Search(q, 0, nil)
		var pair []slm.Match
		for _, m := range all {
			if m.Peptide == twin {
				pair = append(pair, m)
			}
		}
		if len(pair) != 2 || pair[0].Score != pair[1].Score || pair[0].Shared != pair[1].Shared {
			continue
		}
		found++
		if pair[0].Precursor <= pair[1].Precursor {
			t.Errorf("query %d: the index emits the twin rows %+v then %+v, want the heavier first", qi, pair[0], pair[1])
		}
		var answer []engine.PSM
		for _, p := range res.PSMs[qi] {
			if p.Peptide == twin {
				answer = append(answer, p)
			}
		}
		if len(answer) != 2 || answer[0].Precursor != pair[1].Precursor || answer[1].Precursor != pair[0].Precursor {
			t.Errorf("query %d: the session answers %+v for the twin, want the lighter row first", qi, answer)
		}
	}
	if found != 1 {
		t.Fatalf("%d queries tie the two MPEPTIDER rows, want 1", found)
	}
}
