package main

import (
	"sort"

	"lbe/internal/sched"
	"lbe/internal/stats"
)

// sliceStats is the measured window reduced to its slices, one entry per
// slice: how many spectra were answered in it, and what each cost.
type sliceStats struct {
	qps     []float64 // spectra answered per second
	cpuMs   []float64 // process CPU milliseconds per spectrum answered
	allocKB []float64 // heap KiB allocated per spectrum answered
}

// spectraIn spreads every successful operation over the intervals between
// consecutive bounds that it overlaps, in proportion to the overlap, so an
// operation that straddles a boundary is not counted wholly on one side of
// it. It returns the spectra answered in each interval.
func (w *window) spectraIn(bounds []int64) []float64 {
	out := make([]float64, len(bounds)-1)
	for _, log := range w.logs {
		for _, o := range log.ops {
			if o.failed || o.end <= o.start {
				continue
			}
			dur := float64(o.end - o.start)
			i := sort.Search(len(out), func(i int) bool { return bounds[i+1] > o.start })
			for ; i < len(out) && bounds[i] < o.end; i++ {
				lo, hi := max(bounds[i], o.start), min(bounds[i+1], o.end)
				out[i] += float64(o.n) * float64(hi-lo) / dur
			}
		}
	}
	return out
}

// perSlice reduces the window to its slices. Reporting the median slice
// keeps one burst of interference from a shared machine out of the result.
func (w *window) perSlice() sliceStats {
	bounds := make([]int64, len(w.snaps))
	for i, s := range w.snaps {
		bounds[i] = s.t
	}
	var st sliceStats
	for i, spectra := range w.spectraIn(bounds) {
		a, b := w.snaps[i], w.snaps[i+1]
		st.qps = append(st.qps, spectra/(float64(b.t-a.t)/1e9))
		st.cpuMs = append(st.cpuMs, ratio(ms(b.cpuNs-a.cpuNs), spectra))
		st.allocKB = append(st.allocKB, ratio(float64(b.alloc-a.alloc)/1024, spectra))
	}
	return st
}

// traceOverheadPct is tracing's price: how far the throughput of a tick
// that recorded spans fell short of the untraced tick next to it, as the
// median over the window's pairs of ticks — each pair holds one of either
// kind, in alternating order — so a burst of interference that lands on one
// pair does not decide the figure.
func (w *window) traceOverheadPct() float64 {
	spectra := w.spectraIn(w.ticks)
	var gaps []float64
	for i := 0; i+1 < len(spectra); i += 2 {
		on := spectra[i] / float64(w.ticks[i+1]-w.ticks[i])
		off := spectra[i+1] / float64(w.ticks[i+2]-w.ticks[i+1])
		if !tracedTick(i) {
			on, off = off, on
		}
		gaps = append(gaps, 1-ratio(on, off))
	}
	return 100 * median(gaps)
}

// latencies returns the sorted latencies, in milliseconds, of the
// successful operations that ended inside the window.
func (w *window) latencies() []float64 {
	t0, t1 := w.snaps[0].t, w.snaps[len(w.snaps)-1].t
	var out []float64
	for _, log := range w.logs {
		for _, o := range log.ops {
			if !o.failed && o.end >= t0 && o.end <= t1 {
				out = append(out, ms(o.end-o.start))
			}
		}
	}
	return sortedCopy(out)
}

// endToEndMetrics reduces one untraced run — its window's slices and sorted
// latencies, its set-ups, its store and its verification — to the gated
// metrics.
func endToEndMetrics(st sliceStats, lat []float64, setups []stages, r *rig, ref *reference, v *verdict) map[string]float64 {
	return map[string]float64{
		"setup_s":             medianStage(setups, func(s stages) float64 { return s.Total }),
		"qps":                 median(st.qps),
		"p50_ms":              percentile(lat, 50),
		"p95_ms":              percentile(lat, 95),
		"cpu_ms_per_query":    median(st.cpuMs),
		"alloc_kb_per_query":  median(st.allocKB),
		"store_bytes_per_row": float64(r.storeBytes) / float64(r.rows),
		// The paper's LI as the share of the busiest shard's work the
		// average shard has: 100/(1+LI). LI itself sits near 0, where a
		// relative bound cannot gate it; it is engine.shard_imbalance_pct.
		"shard_balance_pct": 100 / (1 + ref.imbalancePct/100),
		"success_pct":       100 * (1 - ratio(float64(v.failed), float64(v.attempted))),
	}
}

// kernelCounts reports the kernel's deterministic work per spectrum over
// the reference pass's prefix: the same spectra on every run of a seed, so
// the counts repeat exactly and a change to them is a change to the kernel.
func kernelCounts(ref *reference, n int, m map[string]float64) {
	w, q := ref.work, float64(n)
	m["slm.ion_hits_per_query"] = float64(w.IonHits) / q
	m["slm.candidates_per_query"] = float64(w.Candidates) / q
	m["slm.pruned_per_query"] = float64(w.Pruned) / q
	m["slm.scored_per_query"] = float64(w.Scored) / q
	m["slm.prune_ratio"] = ratio(float64(w.Pruned), float64(w.Pruned+w.IonHits))
	m["slm.score_yield"] = ratio(float64(w.Scored), float64(w.Candidates))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the counters' change across the window into the
// per-layer counts and ratios, and returns how many spectra the engine
// searched in the window (on a cached server, fewer than were asked).
func counterMetrics(w *window, m map[string]float64) (searched float64) {
	before, after := w.before, w.after
	shardNs := make([]float64, len(after.shards))
	for i := range after.shards {
		shardNs[i] = float64(after.shards[i].QueryNanos - before.shards[i].QueryNanos)
	}
	var batches, chunks, steals, stolen float64
	var workerWork, workerNs []float64
	for i := range after.sched {
		a, b := after.sched[i], before.sched[i]
		batches += float64(a.Batches - b.Batches)
		chunks += float64(a.Chunks - b.Chunks)
		steals += float64(a.Steals - b.Steals)
		stolen += float64(a.Stolen - b.Stolen)
		m["sched.chunk_size"] = float64(a.ChunkSize)
		for t, wa := range a.Workers {
			var wb sched.WorkerStats // a worker first seen inside the window starts from zero
			if t < len(b.Workers) {
				wb = b.Workers[t]
			}
			workerWork = append(workerWork, float64(wa.Work.IonHits+wa.Work.Scored-wb.Work.IonHits-wb.Work.Scored))
			workerNs = append(workerNs, float64(wa.Nanos-wb.Nanos))
		}
	}
	// Each scatter holder searches every spectrum on its own shards, so the
	// spectra searched are one holder's query count, not their sum.
	for i := range after.searched {
		if d := float64(after.searched[i] - before.searched[i]); d > searched {
			searched = d
		}
	}

	m["sched.chunks_per_batch"] = ratio(chunks, batches)
	m["sched.steals_per_batch"] = ratio(steals, batches)
	m["sched.stolen_share"] = ratio(stolen, chunks)
	m["sched.worker_imbalance_pct"] = 100 * stats.LoadImbalance(workerWork)
	wall := float64(w.snaps[len(w.snaps)-1].t - w.snaps[0].t)
	m["sched.worker_busy_share"] = ratio(sum(workerNs), wall*float64(len(workerNs)))
	// The paper's wasted CPU: what the shards' search time would idle if
	// each shard were a machine waiting for the slowest, as a share of the
	// time they spent.
	m["engine.wasted_cpu_pct"] = 100 * ratio(stats.WastedCPUTime(shardNs), sum(shardNs))

	if len(after.servers) > 0 {
		var srvBatches, batched, rejected float64
		var hits, misses, collapsed, evictions, resident float64
		for i := range after.servers {
			a, b := after.servers[i], before.servers[i]
			srvBatches += float64(a.Batches - b.Batches)
			batched += float64(a.BatchedQueries - b.BatchedQueries)
			rejected += float64(a.RejectedQueue - b.RejectedQueue)
			if a.Cache != nil && b.Cache != nil {
				hits += float64(a.Cache.Hits - b.Cache.Hits)
				misses += float64(a.Cache.Misses - b.Cache.Misses)
				collapsed += float64(a.Cache.Collapsed - b.Cache.Collapsed)
				evictions += float64(a.Cache.Evictions - b.Cache.Evictions)
				resident += float64(a.Cache.ResidentBytes)
			}
		}
		m["server.queries_per_batch"] = ratio(batched, srvBatches)
		m["server.rejected_429"] = rejected
		m["qcache.hit_ratio"] = ratio(hits, hits+misses+collapsed)
		m["qcache.collapsed"] = collapsed
		m["qcache.evictions"] = evictions
		m["qcache.resident_mb"] = resident / (1 << 20)
	}
	if after.router != nil {
		m["router.failovers"] = float64(after.router.Failovers - before.router.Failovers)
		if a, b := after.router.Scatter, before.router.Scatter; a != nil && b != nil {
			m["router.rejected_set_down"] = float64(a.RejectedSetDown - b.RejectedSetDown)
		}
	}
	m["proc.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["proc.gc_pause_ms"] = ms(int64(after.mem.PauseTotalNs - before.mem.PauseTotalNs))
	return searched
}
