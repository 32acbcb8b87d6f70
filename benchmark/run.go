package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload workload
	Seed     uint64
	Scale    scale
	Traced   bool
	OutDir   string    // traces and temporary stores go under it
	Pins     pins      // applied only at full scale; zero value pins nothing
	Log      io.Writer // the human-readable report
}

// resultLine is the object a run prints as the last line of its output:
// exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is a run's result line plus what identifies it inside a
// result set.
type runResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Seed     uint64 `json:"seed"`
	resultLine
}

// verdict is what the untimed verification pass found.
type verdict struct {
	attempted, failed int64
	why               string // first failure, for the report
}

func (v *verdict) fail(why string) {
	v.failed++
	if v.why == "" {
		v.why = why
	}
}

// verify checks every reply of every log against the reference, which
// covers every spectrum a run sends: a served reply must carry the bytes a
// direct whole-store search renders for its spectrum, a batch reply the
// PSMs the reference session returned — so repeats of a pool spectrum agree
// with each other too, whichever caller asked.
func verify(logs []*driverLog, ref *reference, v *verdict) {
	want := ref.psm
	if ref.tail != nil {
		want = ref.tail
	}
	for _, log := range logs {
		at := 0
		for _, o := range log.ops {
			v.attempted++
			hashes := log.hashes[at : at+o.n]
			at += o.n
			if o.failed {
				v.fail(log.why)
				continue
			}
			for k, h := range hashes {
				if idx := o.first + k; h != want[idx] {
					v.fail(fmt.Sprintf("spectrum %d answered %016x, reference %016x", idx, h, want[idx]))
					break
				}
			}
		}
	}
}

// runOne runs one workload once: generate, set up (Setups times), answer
// the reference pass, drop the reference, warm up, measure, verify — and,
// traced, probe the layers and write the spans out.
func runOne(ctx context.Context, cfg runConfig) (runResult, error) {
	w, sc := cfg.Workload, cfg.Scale
	res := runResult{Workload: w.Name, Traced: cfg.Traced, Seed: cfg.Seed}
	procs := runtime.GOMAXPROCS(0)
	fmt.Fprintf(cfg.Log, "workload %s seed %d traced %v: closed loop, %d callers, GOMAXPROCS %d, %d scheduler workers\n",
		w.Name, cfg.Seed, cfg.Traced, w.callers(), procs, procs)

	distinct := 0
	if w.distinctRequests() {
		distinct = sc.distinct(w.callers())
	}
	c, err := buildCorpus(cfg.Seed, sc, distinct)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.Log, "inputs: %d peptides, %d rows, %d shards, %d spectra, sha256 %s\n",
		len(c.Peptides), c.Rows, sc.Shards, len(c.Spectra), c.Fingerprint)
	pin, pinned := cfg.Pins.forSeed(cfg.Seed)
	if pinned {
		if err := pin.checkInputs(c, sc); err != nil {
			return res, err
		}
	} else {
		fmt.Fprintf(cfg.Log, "seed %d is not pinned: inputs not checked for drift, answers checked against the reference session but not against a golden digest\n", cfg.Seed)
	}

	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return res, err
	}
	tmp, err := os.MkdirTemp(cfg.OutDir, "tmp-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)

	tr := newTracer()
	var wrap *tracer
	if cfg.Traced {
		wrap = tr
	}
	var setups []stages
	var r *rig
	for i := 0; i < sc.Setups; i++ {
		if r != nil {
			r.tearDown()
		}
		if r, err = setUp(ctx, w, c, sc, filepath.Join(tmp, fmt.Sprintf("store-%d", i)), wrap); err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, r.stages)
	}
	defer r.tearDown()

	ref, err := referencePass(ctx, r, c, sc, len(c.Spectra))
	if err != nil {
		return res, err
	}
	var v verdict
	if pinned {
		v.attempted++
		if want := pin.Golden[w.storeKind()]; ref.golden != want {
			v.fail(fmt.Sprintf("golden digest of the %s store is %s, pinned %s", w.storeKind(), ref.golden, want))
		}
	}
	r.dropBuilt()

	ld := &load{r: r, c: c, sc: sc, tr: tr, seed: cfg.Seed}
	ld.distinct.Store(int64(sc.Pool))
	if w.Front != frontSession {
		lo, hi := 0, sc.Pool
		if w.distinctRequests() {
			lo, hi = sc.Pool, len(c.Spectra)
		}
		if ld.bodies, err = newBodies(c.Spectra, lo, hi); err != nil {
			return res, err
		}
	}
	if w.Zipf {
		if err := r.fillCache(ctx, c.Spectra[:sc.Pool]); err != nil {
			return res, err
		}
	}
	// Start the window from a collected heap, so what the set-ups and the
	// reference pass left behind is not charged to it.
	runtime.GC()
	debug.FreeOSMemory()

	win := ld.runWindow(ctx, cfg.Traced)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	logs := win.logs
	for _, st := range win.steps {
		logs = append(logs, &st.log)
		if st.exhausted {
			v.attempted++
			v.fail("distinct pool exhausted during an open-loop step")
		}
	}
	verify(logs, ref, &v)
	res.Attempted, res.Failed, res.Correct = v.attempted, v.failed, v.failed == 0
	if v.failed > 0 {
		fmt.Fprintf(cfg.Log, "FAILED %d of %d operations; first: %s\n", v.failed, v.attempted, v.why)
	}

	lat, st := win.latencies(), win.perSlice()
	slices := sortedCopy(st.qps)
	fmt.Fprintf(cfg.Log, "window: %d operations, tail percentile the sample supports: p%g; qps over %d slices: min %.6g median %.6g max %.6g\n",
		len(lat), tailPercentile(len(lat)), len(slices), slices[0], median(slices), slices[len(slices)-1])
	if !cfg.Traced {
		vals := endToEndMetrics(st, lat, setups, r, ref, &v)
		res.Metrics = collect(endToEnd, vals)
		report(cfg.Log, endToEnd, vals)
		return res, nil
	}

	spans := tr.all()
	vals, err := perLayerMetrics(ctx, win, lat, setups, r, c, sc, ref, spans, &v)
	if err != nil {
		return res, err
	}
	vals["gen.corpus_s"] = c.GenSeconds
	res.Metrics = collect(perLayer, vals)
	report(cfg.Log, perLayer, vals)
	path := filepath.Join(cfg.OutDir, "trace-"+w.Name+".jsonl")
	if err := writeJSONL(path, spans); err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.Log, "spans written to %s\n", path)
	return res, nil
}

// report prints every metric by name with its unit, in definition order.
func report(out io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// medianStage is the median over the set-ups of one stage.
func medianStage(setups []stages, pick func(stages) float64) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = pick(s)
	}
	return median(xs)
}

// perLayerMetrics reduces one traced run to the per-layer metrics: the
// counters' change across the window, the spans, the set-up stages, the
// open-loop steps, and the probes.
func perLayerMetrics(ctx context.Context, win *window, lat []float64, setups []stages, r *rig, c *corpus, sc scale, ref *reference, spans []span, v *verdict) (map[string]float64, error) {
	m := make(map[string]float64)
	searched := counterMetrics(win, m)
	kernelCounts(ref, sc.Pool, m)
	m["engine.shard_imbalance_pct"] = ref.imbalancePct
	m["client.fail_ratio"] = ratio(float64(v.failed), float64(v.attempted))

	m["engine.new_session_s"] = medianStage(setups, func(s stages) float64 { return s.NewSession })
	m["core.group_s"] = medianStage(setups, func(s stages) float64 { return s.Group })
	m["core.partition_s"] = medianStage(setups, func(s stages) float64 { return s.Partition })
	m["slm.build_s"] = medianStage(setups, func(s stages) float64 { return s.Build })
	m["engine.save_s"] = medianStage(setups, func(s stages) float64 { return s.Save })
	m["engine.save_partitioned_s"] = medianStage(setups, func(s stages) float64 { return s.SavePartitioned })
	m["engine.open_mmap_ms"] = 1e3 * medianStage(setups, func(s stages) float64 { return s.OpenMmap })
	m["engine.first_batch_ms"] = 1e3 * medianStage(setups, func(s stages) float64 { return s.FirstBatch })

	sum := summarize(spans)
	p := func(xs []float64, q float64) float64 { return percentile(sortedCopy(xs), q) }
	m["client.transport_ms_p50"] = p(sum.clientTransport, 50)
	m["server.handler_ms_p50"] = p(sum.serverHandler, 50)
	m["server.handler_ms_p95"] = p(sum.serverHandler, 95)
	m["server.self_ms_p50"] = p(sum.serverSelf, 50)
	m["router.handler_ms_p50"] = p(sum.routerHandler, 50)
	m["router.handler_ms_p95"] = p(sum.routerHandler, 95)
	m["router.self_ms_p50"] = p(sum.routerSelf, 50)
	m["router.holder_skew_ms_p50"] = p(sum.holderSkew, 50)
	m["client.p99_ms"] = percentile(lat, 99)

	m["trace.overhead_pct"] = win.traceOverheadPct()

	openLoopMetrics(win.steps, m)

	_, rss := rusage()
	m["proc.peak_rss_mb"] = float64(rss) / (1 << 20)
	last := len(win.snaps) - 1
	cpuMs := ms(win.snaps[last].cpuNs - win.snaps[0].cpuNs)
	if err := runProbes(ctx, r, c, sc, sum.engineSearch, searched, cpuMs, m); err != nil {
		return nil, err
	}
	return m, nil
}

// openLoopMetrics reports each open-loop step's p95 from intended send
// time, how late the generator ran, and the highest rate that held the
// latency limit without a backlog building up behind it.
func openLoopMetrics(steps []*stepResult, m map[string]float64) {
	var lag []float64
	for _, st := range steps {
		var lat []float64
		failed := 0
		for _, o := range st.log.ops {
			if o.failed {
				failed++
				continue
			}
			lat = append(lat, ms(o.end-o.start))
		}
		p95 := percentile(sortedCopy(lat), 95)
		m[fmt.Sprintf("client.open_p95_ms_r%d", int(st.rate))] = p95
		lag = append(lag, st.lagMs...)
		// A backlog is growing when, as the step's last request falls due,
		// more than a fiftieth of the step is still unanswered.
		growing := st.backlog*50 > len(st.log.ops)
		if failed == 0 && !growing && p95 <= sloLimitMs && st.rate > m["client.slo_rate_rps"] {
			m["client.slo_rate_rps"] = st.rate
		}
	}
	m["client.sched_lag_ms_p95"] = percentile(sortedCopy(lag), 95)
}
