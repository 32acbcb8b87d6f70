// Package sched is the engine's query-time execution layer: one shared,
// load-aware work-stealing pool per process, which sizes its own chunks
// from the work it observes (Tuner).
//
// LBE balances the *data* across shards ahead of time, but per-query cost
// still varies wildly at search time (open-search candidate counts are
// skewed), so a static assignment of queries to threads — or of whole
// shards to goroutine groups — re-introduces exactly the idle-core problem
// the paper set out to remove. Following the HiCOPS line of work
// (arXiv:2102.02286), the scheduler overlaps all (shard × query-range)
// tasks on one worker pool and lets idle workers steal queued work, while
// measuring balance in the deterministic slm.Work units the index already
// accounts (arXiv:2009.14123 motivates work units over wall clock).
//
// Execution model:
//
//   - A batch of queries against S shard indexes is split into chunks:
//     contiguous query sub-ranges of one shard, the unit of scheduling.
//   - Each shard owns a deque of its chunks. Workers are assigned home
//     shards round-robin and pop chunks from the front of their home
//     deque (good locality: a worker stays on one index, and its Scratch
//     buffers stay sized and hot for that index).
//   - When a worker's deque runs dry it finds the deque with the most
//     remaining chunks and steals the back half into a private run queue
//     (steal-half: one steal amortizes over many chunks).
//   - Estimate replays this schedule in virtual time beside the static
//     baseline (the workers homed on a shard stride over its chunk list
//     and never look elsewhere), for bench.Steal; the pool itself never
//     runs the baseline.
//
// Results are deterministic by construction: every (shard, query) cell of
// the output is written by exactly one chunk, and a query's matches depend
// only on (index, query) — never on which worker ran it or when. The PSMs
// are therefore byte-identical to the serial path for any worker count,
// chunk size, or steal schedule; only the telemetry (who did how much,
// wall times) varies.
package sched

import (
	"context"
	"sync"
	"time"

	"lbe/internal/slm"
)

// Options configures a Pool.
type Options struct {
	// Workers is the pool size. Values <= 1 run the batch serially on the
	// caller's goroutine.
	Workers int
	// TopK is how many matches per query the caller keeps after merging
	// the shards: workers keep, per (shard, query) cell, only the matches
	// scoring at least the cell's TopK-th best (slm.Index.SearchQuery).
	// 0 keeps every match.
	TopK int

	// chunkSize pins the task granularity in queries per chunk, so the
	// package's tests can sweep it; 0 (always, outside them) lets the
	// Tuner size chunks from the observed work per query.
	chunkSize int
}

// ShardStats is one shard's share of a scheduled batch. Work is
// deterministic (identical for every schedule); Nanos is the summed wall
// time of the shard's chunks, which depends on the machine.
type ShardStats struct {
	Shard  int
	Chunks int
	Work   slm.Work
	Nanos  int64
}

// WorkerStats is one worker's share of a scheduled batch: how many chunks
// it ran (and how many of those it obtained by stealing), the number of
// steal operations it performed, and the work/wall-time it executed. The
// spread of Work across workers is the scheduler's balance figure.
type WorkerStats struct {
	Worker int
	Chunks int
	Stolen int // chunks acquired by stealing
	Steals int // successful steal-half operations
	Work   slm.Work
	Nanos  int64
}

// Add accumulates a batch's worker telemetry into a lifetime aggregate.
func (w *WorkerStats) Add(b WorkerStats) {
	w.Chunks += b.Chunks
	w.Stolen += b.Stolen
	w.Steals += b.Steals
	w.Work.Add(b.Work)
	w.Nanos += b.Nanos
}

// Result is one scheduled batch: the per-shard match matrix plus the
// telemetry of how the schedule played out.
type Result struct {
	// Matches[s][q] holds shard s's matches for query q, identical for
	// every schedule: with Options.TopK == 0 what shards[s].SearchAll(qs, 0)
	// returns, otherwise the subset of it scoring at least the cell's
	// TopK-th best score, in the same order — so a best-TopK merge over
	// the shards cannot tell the difference.
	Matches [][][]slm.Match
	Shards  []ShardStats
	Workers []WorkerStats
	// ChunkSize is the granularity, in queries per chunk, the Tuner
	// picked for this batch.
	ChunkSize int
}

// Work sums the deterministic work across shards.
func (r *Result) Work() slm.Work {
	var w slm.Work
	for _, s := range r.Shards {
		w.Add(s.Work)
	}
	return w
}

// Pool runs query batches on the work-stealing schedule. A Pool is safe for
// concurrent Run calls; the embedded tuner is shared across them so chunk
// sizing keeps learning over a session's lifetime, and so are the worker
// states: a Run borrows one per worker and returns them, so their search
// scratch is allocated once per pool, not once per batch.
type Pool struct {
	opts  Options
	tuner Tuner

	mu   sync.Mutex
	free []*workerState // idle states, scratch warm: Workers × the most Runs ever in flight at once
}

// NewPool creates a pool with the given options.
func NewPool(opts Options) *Pool {
	return &Pool{opts: opts}
}

// chunk is one schedulable task: queries [lo, hi) against one shard.
type chunk struct {
	shard  int
	lo, hi int
}

// workerState is one worker's working set: its telemetry for the current
// Run, the per-shard accounting reduced after the barrier, and the search
// scratch that outlives the Run.
type workerState struct {
	stats   WorkerStats
	shards  []ShardStats // this worker's share of each shard
	topK    int          // Options.TopK of the owning pool
	scratch slm.Scratch
}

// acquire hands out one worker state per worker with zeroed telemetry for
// ns shards, reusing idle ones (and their warm scratch) before making new
// ones. The caller returns them with release once its workers are done.
func (p *Pool) acquire(workers, ns int) []*workerState {
	states := make([]*workerState, workers)
	p.mu.Lock()
	n := copy(states, p.free[max(0, len(p.free)-workers):])
	p.free = p.free[:len(p.free)-n]
	p.mu.Unlock()
	for t, ws := range states {
		if ws == nil {
			ws = &workerState{topK: p.opts.TopK}
			states[t] = ws
		}
		ws.stats = WorkerStats{Worker: t}
		if cap(ws.shards) < ns {
			ws.shards = make([]ShardStats, ns)
		}
		ws.shards = ws.shards[:ns]
		clear(ws.shards)
	}
	return states
}

// release returns a Run's worker states to the idle list.
func (p *Pool) release(states []*workerState) {
	p.mu.Lock()
	p.free = append(p.free, states...)
	p.mu.Unlock()
}

// runChunk searches one chunk's prepared queries against its shard,
// writing each query's matches into the (shard, query) cell owned by this
// chunk alone.
//
//lbe:hotpath
func (ws *workerState) runChunk(c chunk, ix *slm.Index, qs []slm.Query, out [][][]slm.Match) {
	start := time.Now()
	var work slm.Work
	for q := c.lo; q < c.hi; q++ {
		m, w := ix.SearchQuery(&qs[q], ws.topK, &ws.scratch)
		out[c.shard][q] = m
		work.Add(w)
	}
	nanos := time.Since(start).Nanoseconds()
	ws.stats.Chunks++
	ws.stats.Work.Add(work)
	ws.stats.Nanos += nanos
	ws.shards[c.shard].Chunks++
	ws.shards[c.shard].Work.Add(work)
	ws.shards[c.shard].Nanos += nanos
}

// deque holds one shard's pending chunks. Owners pop from the front;
// thieves take the back half. The mutex is uncontended in the common case
// (a shard's home workers plus the occasional thief).
type deque struct {
	mu     sync.Mutex
	chunks []chunk
}

// pop removes and returns the front chunk.
//
//lbe:hotpath
func (d *deque) pop() (chunk, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.chunks) == 0 {
		return chunk{}, false
	}
	c := d.chunks[0]
	d.chunks = d.chunks[1:]
	return c, true
}

// stealHalf removes and returns the back half (rounded up) of the deque.
// The sized make for the stolen chunks is the transfer's one allocation.
//
//lbe:hotpath
func (d *deque) stealHalf() []chunk {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.chunks)
	if n == 0 {
		return nil
	}
	take := (n + 1) / 2
	stolen := make([]chunk, take)
	copy(stolen, d.chunks[n-take:])
	d.chunks = d.chunks[:n-take]
	return stolen
}

// size reports the current queue length (used by the victim scan).
//
//lbe:hotpath
func (d *deque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.chunks)
}

// Run searches the prepared queries qs (slm.Query, prepared under the
// shards' Resolution, FragmentTol and MaxFragmentMZ) against every shard
// and returns the full match matrix plus telemetry. Matches are identical
// to the serial reference for every worker count and chunk size. The
// shards are open indexes, each checked whole when it was built or
// opened. On context cancellation Run stops between chunks and returns
// ctx.Err() with a nil result.
func (p *Pool) Run(ctx context.Context, shards []*slm.Index, qs []slm.Query) (*Result, error) {
	nq := len(qs)
	ns := len(shards)
	res := &Result{
		Matches: make([][][]slm.Match, ns),
		Shards:  make([]ShardStats, ns),
	}
	for s := range shards {
		res.Matches[s] = make([][]slm.Match, nq)
		res.Shards[s].Shard = s
	}
	if ns == 0 || nq == 0 {
		res.ChunkSize = 1
		return res, ctx.Err()
	}

	workers := p.opts.Workers
	if workers < 1 {
		workers = 1
	}
	csize := p.opts.chunkSize
	if csize <= 0 {
		csize = p.tuner.ChunkSize(nq, ns, workers)
	}
	if csize > nq {
		csize = nq
	}
	res.ChunkSize = csize

	// Enumerate every shard's chunks up front; no task is ever spawned
	// later, so "all deques and private queues empty" is a complete
	// termination condition.
	perShard := make([][]chunk, ns)
	for s := range shards {
		perShard[s] = make([]chunk, 0, (nq+csize-1)/csize)
		for lo := 0; lo < nq; lo += csize {
			hi := lo + csize
			if hi > nq {
				hi = nq
			}
			perShard[s] = append(perShard[s], chunk{shard: s, lo: lo, hi: hi})
		}
	}

	states := p.acquire(workers, ns)
	defer p.release(states)

	if workers == 1 {
		ws := states[0]
		for s := range perShard {
			for _, c := range perShard[s] {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				ws.runChunk(c, shards[c.shard], qs, res.Matches)
			}
		}
	} else {
		runStealing(ctx, shards, qs, perShard, states, res.Matches)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reduce(states, res)
	p.tuner.Observe(int64(nq)*int64(ns), res.Work())
	return res, nil
}

// homeShard assigns workers to shards round-robin.
func homeShard(worker, shards int) int { return worker % shards }

// runStealing is the schedule: per-shard deques, home-first popping,
// steal-half on empty.
func runStealing(ctx context.Context, shards []*slm.Index, qs []slm.Query, perShard [][]chunk, states []*workerState, out [][][]slm.Match) {
	deques := make([]*deque, len(perShard))
	for s := range perShard {
		deques[s] = &deque{chunks: perShard[s]}
	}

	var wg sync.WaitGroup
	for t := range states {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ws := states[t]
			home := deques[homeShard(t, len(deques))]
			var local []chunk // privately stolen chunks, run in order
			for {
				if ctx.Err() != nil {
					return
				}
				var c chunk
				if len(local) > 0 {
					c, local = local[0], local[1:]
				} else if popped, ok := home.pop(); ok {
					c = popped
				} else {
					// Home is dry: steal half of the fullest deque and
					// adopt that shard as the new home.
					victim, best := -1, 0
					for s, d := range deques {
						if n := d.size(); n > best {
							best, victim = n, s
						}
					}
					if victim < 0 {
						return // everything everywhere is done
					}
					stolen := deques[victim].stealHalf()
					if len(stolen) == 0 {
						continue // lost the race; rescan
					}
					ws.stats.Steals++
					ws.stats.Stolen += len(stolen)
					home = deques[victim]
					c, local = stolen[0], stolen[1:]
				}
				ws.runChunk(c, shards[c.shard], qs, out)
			}
		}(t)
	}
	wg.Wait()
}

// reduce folds the workers' accounting into the result. Work is summed in
// integer units, so per-shard and total figures are identical however the
// chunks were dealt.
func reduce(states []*workerState, res *Result) {
	res.Workers = make([]WorkerStats, len(states))
	for t, ws := range states {
		res.Workers[t] = ws.stats
		for s, sh := range ws.shards {
			res.Shards[s].Chunks += sh.Chunks
			res.Shards[s].Work.Add(sh.Work)
			res.Shards[s].Nanos += sh.Nanos
		}
	}
}
