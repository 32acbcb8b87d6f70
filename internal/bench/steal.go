package bench

import (
	"fmt"
	"sort"

	"lbe/internal/core"
	"lbe/internal/sched"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// Steal compares the work-stealing execution layer against the legacy
// static per-shard/strided schedule on a deliberately skewed workload:
// the peptide database is sorted by ascending length and chunk-partitioned
// in raw order, so the last shards hold the longest peptides — the most
// modification variants and ion postings — and a static worker-to-shard
// pinning leaves the short-shard workers idle while the long-shard workers
// grind (the intra-node re-run of the paper's Fig. 6 chunk-policy skew).
//
// Both schedules are replayed deterministically in virtual time over
// counted per-chunk work units (sched.Estimate); throughput is queries
// per million work units of makespan, so the figure needs no clock and
// no more cores than the machine has.
func Steal(o Options) (Figure, error) {
	const shards = 8
	workerSweep := []int{1, 2, 4, 8}

	fig := Figure{
		ID:     "steal",
		Title:  fmt.Sprintf("Work-stealing vs static scheduling, %d skewed shards", shards),
		XLabel: "scheduler workers",
		YLabel: "batch throughput (queries per M units of makespan)",
	}
	c, err := o.corpusAt(paperSizesM[1])
	if err != nil {
		return fig, err
	}
	cfg := engineConfig()

	// Skew: ascending length + raw-order chunk partition concentrates the
	// expensive peptides on the last shards.
	peptides := append([]string(nil), c.Peptides...)
	sort.Slice(peptides, func(i, j int) bool {
		if len(peptides[i]) != len(peptides[j]) {
			return len(peptides[i]) < len(peptides[j])
		}
		return peptides[i] < peptides[j]
	})
	grouping := core.IdentityGrouping(len(peptides))
	partition, err := core.PartitionClustered(grouping, shards, core.Chunk, 0)
	if err != nil {
		return fig, err
	}

	// Build the shard indexes and count the work of every (shard, query)
	// cell with one serial pass.
	qs := spectrum.PreprocessAll(c.Queries, cfg.Params.MaxQueryPeaks)
	perQuery := make([][]int64, shards)
	for m := 0; m < shards; m++ {
		mine := partition.GlobalIndices(grouping, m)
		local := make([]string, len(mine))
		for i, g := range mine {
			local[i] = peptides[g]
		}
		ix, err := slm.BuildWorkers(local, cfg.Params, 0)
		if err != nil {
			return fig, err
		}
		perQuery[m] = make([]int64, len(qs))
		var scratch slm.Scratch
		for q := range qs {
			_, w := ix.Search(qs[q], 0, &scratch)
			perQuery[m][q] = w.IonHits + w.Scored
		}
	}

	// Shard skew in the figure's own currency.
	shardWork := make([]float64, shards)
	maxShard, avgShard := 0.0, 0.0
	for m := range perQuery {
		for _, w := range perQuery[m] {
			shardWork[m] += float64(w)
		}
		avgShard += shardWork[m] / float64(shards)
		if shardWork[m] > maxShard {
			maxShard = shardWork[m]
		}
	}

	static := Series{Label: "static per-shard/strided"}
	stealing := Series{Label: "work-stealing"}
	var ratioAtMax float64
	for _, w := range workerSweep {
		chunk := (&sched.Tuner{}).ChunkSize(len(qs), shards, w)
		costs := sched.ChunkCosts(perQuery, chunk)
		ms := sched.Estimate(costs, w, false)
		mw := sched.Estimate(costs, w, true)
		if ms <= 0 || mw <= 0 {
			return fig, fmt.Errorf("bench: steal: empty makespan at %d workers", w)
		}
		static.X = append(static.X, float64(w))
		static.Y = append(static.Y, float64(len(qs))*1e6/float64(ms))
		stealing.X = append(stealing.X, float64(w))
		stealing.Y = append(stealing.Y, float64(len(qs))*1e6/float64(mw))
		ratioAtMax = float64(ms) / float64(mw)
	}
	fig.Series = []Series{static, stealing}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("shard work skew: max/avg = %.2f (chunk partition over length-sorted peptides)",
			maxShard/avgShard),
		"both schedules replayed by sched.Estimate over counted per-chunk work units",
		fmt.Sprintf("stealing vs static batch throughput at %d workers: %.2fx (acceptance floor 1.2x)",
			workerSweep[len(workerSweep)-1], ratioAtMax))
	return fig, nil
}
