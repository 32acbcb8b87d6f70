package engine

import (
	"context"
	"runtime"
	"time"

	"lbe/internal/sched"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// This file holds the channel-based query pipeline every run mode is built
// on: queries flow in batches through preprocess → search → merge stages,
// overlapping compute with communication. RunRankCtx wires the stages to a
// communicator (one partition per rank); Session wires them to in-process
// shards and keeps them hot across repeated query batches.

// pipeDepth is the per-stage channel buffer: enough slack to keep
// neighboring stages busy without unbounded queueing.
const pipeDepth = 2

// divideBuildWorkers splits an index-construction worker budget (0 means
// one per available core) across n concurrent builders sharing this
// process, rounding up so every builder gets at least one worker.
func divideBuildWorkers(budget, n int) int {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return (budget + n - 1) / n
}

// batch is one slice of the query stream flowing through the pipeline.
type batch struct {
	seq    int // batch sequence number, 0-based
	offset int // global index of the batch's first query
	qs     []spectrum.Experimental
}

// searched is a batch after the local search stage.
type searched struct {
	batch
	matches [][]slm.Match // per query in the batch
	work    slm.Work
	nanos   int64 // wall time spent searching the batch
}

// send delivers v on ch unless ctx is cancelled first.
func send[T any](ctx context.Context, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-ctx.Done():
		return false
	}
}

// recv takes the next value from ch; ok is false once ch is closed and
// drained or ctx is cancelled.
func recv[T any](ctx context.Context, ch <-chan T) (T, bool) {
	select {
	case v, ok := <-ch:
		return v, ok
	case <-ctx.Done():
		var zero T
		return zero, false
	}
}

// effectiveBatch resolves the pipeline batch size for an n-query run:
// BatchSize if set, else the legacy ResultBatch, else the whole run as a
// single batch (the paper's one-message-per-worker description).
func (cfg Config) effectiveBatch(n int) int {
	b := cfg.BatchSize
	if b <= 0 {
		b = cfg.ResultBatch
	}
	if b <= 0 {
		b = n
	}
	if b < 1 {
		b = 1
	}
	return b
}

// numBatches returns how many batches batchSource emits for n queries:
// always at least one, so exchange counts stay deterministic even for an
// empty query set.
func numBatches(n, size int) int {
	if n == 0 {
		return 1
	}
	return (n + size - 1) / size
}

// forEachBatch invokes fn on successive size-query slices of qs (size is
// clamped to at least 1) until qs is exhausted or fn returns false.
func forEachBatch(qs []spectrum.Experimental, size int, fn func(off int, qs []spectrum.Experimental) bool) {
	if size < 1 {
		size = 1
	}
	for off := 0; off < len(qs); off += size {
		end := off + size
		if end > len(qs) {
			end = len(qs)
		}
		if !fn(off, qs[off:end]) {
			return
		}
	}
}

// batchSource slices queries into size-query batches on a channel. An
// empty query set still yields one empty batch.
func batchSource(ctx context.Context, queries []spectrum.Experimental, size int) <-chan batch {
	out := make(chan batch, pipeDepth)
	go func() {
		defer close(out)
		if len(queries) == 0 {
			send(ctx, out, batch{})
			return
		}
		seq := 0
		forEachBatch(queries, size, func(off int, qs []spectrum.Experimental) bool {
			ok := send(ctx, out, batch{seq: seq, offset: off, qs: qs})
			seq++
			return ok
		})
	}()
	return out
}

// preprocessStage applies the paper's query preprocessing (top-N peaks,
// base-peak normalization) to each batch as it flows past.
func preprocessStage(ctx context.Context, in <-chan batch, topN int) <-chan batch {
	out := make(chan batch, pipeDepth)
	go func() {
		defer close(out)
		for {
			b, ok := recv(ctx, in)
			if !ok {
				return
			}
			b.qs = spectrum.PreprocessAll(b.qs, topN)
			if !send(ctx, out, b) {
				return
			}
		}
	}()
	return out
}

// newPool builds the scheduler pool the config describes: ThreadsPerRank
// workers over per-shard chunk deques, stealing or static per
// cfg.Stealing, cfg.ChunkSize granularity (0 = auto-tuned). cfg.TopK goes
// down with it: workers hand back, per (shard, query) cell, only the
// matches that can still reach the merged best TopK (ties at the cell's
// cut included, so sortPSMs still breaks them).
func (cfg Config) newPool() *sched.Pool {
	return sched.NewPool(sched.Options{
		Workers:   cfg.ThreadsPerRank,
		ChunkSize: cfg.ChunkSize,
		Stealing:  cfg.Stealing,
		TopK:      cfg.TopK,
	})
}

// searchStage searches each preprocessed batch against the local index on
// the rank's scheduler pool, accounting work and wall time per batch.
func searchStage(ctx context.Context, ix *slm.Index, in <-chan batch, pool *sched.Pool) <-chan searched {
	out := make(chan searched, pipeDepth)
	go func() {
		defer close(out)
		for {
			b, ok := recv(ctx, in)
			if !ok {
				return
			}
			start := time.Now()
			res, err := pool.Run(ctx, []*slm.Index{ix}, b.qs)
			if err != nil {
				return // cancelled; the stage's consumers watch ctx too
			}
			s := searched{
				batch:   b,
				matches: res.Matches[0],
				work:    res.Work(),
				nanos:   time.Since(start).Nanoseconds(),
			}
			if !send(ctx, out, s) {
				return
			}
		}
	}()
	return out
}

// flattenWire projects a searched batch into the wire tuples a worker
// ships to the master.
func flattenWire(offset int, matches [][]slm.Match) []wireMatch {
	n := 0
	for _, ms := range matches {
		n += len(ms)
	}
	wire := make([]wireMatch, 0, n)
	for q, ms := range matches {
		for _, m := range ms {
			wire = append(wire, wireMatch{
				Query:     int32(offset + q),
				Virtual:   m.Peptide,
				Shared:    m.Shared,
				Score:     m.Score,
				Precursor: m.Precursor,
			})
		}
	}
	return wire
}
