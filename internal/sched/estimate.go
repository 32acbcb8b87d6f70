package sched

// Deterministic schedule estimation. Wall-clock comparisons of the static
// and stealing schedules need as many real cores as workers, which small
// machines rarely have; the bench figures therefore replay both schedules
// in virtual time over deterministic per-chunk work units, so a makespan
// is counted work rather than seconds and load-balance effects are
// preserved exactly. The stealing replay shares the pool's homing and
// stealing rules, and the static one deals chunks as the pre-stealing
// executor did, so it is the algorithms themselves being evaluated — only
// the nondeterministic OS interleaving is idealized away: each virtual
// worker acts the moment its clock frees, i.e. dedicated-core execution.

// ChunkCosts folds per-(shard, query) work units into per-chunk costs at
// the given granularity, mirroring Run's chunk enumeration.
func ChunkCosts(perQuery [][]int64, chunkSize int) [][]int64 {
	if chunkSize < 1 {
		chunkSize = 1
	}
	out := make([][]int64, len(perQuery))
	for s, qs := range perQuery {
		for lo := 0; lo < len(qs); lo += chunkSize {
			hi := lo + chunkSize
			if hi > len(qs) {
				hi = len(qs)
			}
			var sum int64
			for q := lo; q < hi; q++ {
				sum += qs[q]
			}
			out[s] = append(out[s], sum)
		}
	}
	return out
}

// dealStatic assigns every chunk to a fixed worker, the static baseline
// Estimate replays: the workers homed on a shard stride over its chunk
// list; when there are more shards than workers, ownerless shards fold
// onto the worker their ring position points at. With one shard and
// chunk size 1 this is the legacy strided search; with threads/shards
// workers per shard it is the legacy goroutine-per-shard split.
func dealStatic(perShard [][]chunk, workers int) [][]chunk {
	plans := make([][]chunk, workers)
	owners := make([][]int, len(perShard)) // workers homed on each shard
	for t := 0; t < workers; t++ {
		owners[homeShard(t, len(perShard))] = append(owners[homeShard(t, len(perShard))], t)
	}
	for s := range perShard {
		own := owners[s]
		if len(own) == 0 {
			own = []int{homeShard(s, workers)}
		}
		for i, c := range perShard[s] {
			plans[own[i%len(own)]] = append(plans[own[i%len(own)]], c)
		}
	}
	return plans
}

// Estimate returns the virtual-time makespan (in work units) of executing
// the per-shard chunk costs on the given worker count under one of the
// two schedules. Fully deterministic: ties between workers break by id,
// victim selection by lowest shard index, exactly as in the executor.
func Estimate(costs [][]int64, workers int, stealing bool) int64 {
	if workers < 1 {
		workers = 1
	}
	perShard := make([][]chunk, len(costs))
	total := 0
	for s, cs := range costs {
		perShard[s] = make([]chunk, len(cs))
		for i := range cs {
			perShard[s][i] = chunk{shard: s, lo: i}
		}
		total += len(cs)
	}
	if total == 0 || len(costs) == 0 {
		return 0
	}
	cost := func(c chunk) int64 { return costs[c.shard][c.lo] }

	if !stealing {
		var makespan int64
		for _, plan := range dealStatic(perShard, workers) {
			var t int64
			for _, c := range plan {
				t += cost(c)
			}
			if t > makespan {
				makespan = t
			}
		}
		return makespan
	}

	// Virtual work-stealing replay: the worker with the earliest clock
	// acts next (dedicated cores, zero scheduling noise).
	type vworker struct {
		clock int64
		home  int
		local []chunk
		done  bool
	}
	ws := make([]*vworker, workers)
	for t := range ws {
		ws[t] = &vworker{home: homeShard(t, len(perShard))}
	}
	remaining := total
	var makespan int64
	for remaining > 0 {
		// Earliest clock among live workers, ties by id.
		var w *vworker
		for _, cand := range ws {
			if cand.done {
				continue
			}
			if w == nil || cand.clock < w.clock {
				w = cand
			}
		}
		if w == nil {
			break
		}
		var c chunk
		switch {
		case len(w.local) > 0:
			c, w.local = w.local[0], w.local[1:]
		case len(perShard[w.home]) > 0:
			c, perShard[w.home] = perShard[w.home][0], perShard[w.home][1:]
		default:
			victim, best := -1, 0
			for s := range perShard {
				if n := len(perShard[s]); n > best {
					best, victim = n, s
				}
			}
			if victim < 0 {
				w.done = true
				continue
			}
			take := (best + 1) / 2
			stolen := append([]chunk(nil), perShard[victim][best-take:]...)
			perShard[victim] = perShard[victim][:best-take]
			w.home = victim
			c, w.local = stolen[0], stolen[1:]
		}
		w.clock += cost(c)
		if w.clock > makespan {
			makespan = w.clock
		}
		remaining--
	}
	return makespan
}
