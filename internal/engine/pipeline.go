package engine

import (
	"context"
	"runtime"

	"lbe/internal/sched"
	"lbe/internal/spectrum"
)

// This file holds the shared pieces of the one channel-based query
// pipeline, Stream (session.go): queries flow in batches through
// preprocess → search → merge stages, several batches in flight at once.
// A distributed rank runs the same Stream over its one shard and forwards
// what comes out to the master (rank.go).

// pipeDepth is the per-stage channel buffer: enough slack to keep
// neighboring stages busy without unbounded queueing.
const pipeDepth = 2

// divideBudget splits a worker budget (index construction or search; 0
// means one per available core) across n concurrent users sharing this
// process, rounding up so every user gets at least one worker.
func divideBudget(budget, n int) int {
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
// BatchSize if set, else the whole run as a single batch (the paper's
// one-message-per-worker description).
func (sc Schedule) effectiveBatch(n int) int {
	if sc.BatchSize > 0 {
		return sc.BatchSize
	}
	return max(n, 1)
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

// newPool builds the scheduler pool the schedule describes: ThreadsPerRank
// workers (0 = one per core) over per-shard chunk deques, stealing or
// static per sc.Stealing, sc.ChunkSize granularity (0 = auto-tuned). The
// shape's topK goes down with it: workers hand back, per (shard, query)
// cell, only the matches that can still reach the merged best topK (ties
// at the cell's cut included, so sortPSMs still breaks them).
func newPool(sc Schedule, topK int) *sched.Pool {
	workers := sc.ThreadsPerRank
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return sched.NewPool(sched.Options{
		Workers:   workers,
		ChunkSize: sc.ChunkSize,
		Stealing:  sc.Stealing,
		TopK:      topK,
	})
}
