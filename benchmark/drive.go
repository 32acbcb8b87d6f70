package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/gen"
	"lbe/internal/spectrum"
)

// op is one operation as its caller saw it: one Session.Search call on
// batch-*, one /search request otherwise. Times are on the tracer clock.
type op struct {
	start, end int64
	first      int  // index into the spectrum stream of the op's first spectrum
	n          int  // spectra the op carried
	failed     bool // transport error, non-200, bad framing, or (set later) a wrong answer
}

// driverLog is what one caller recorded; each caller owns its log, so
// nothing is shared while the clock runs.
type driverLog struct {
	ops    []op
	hashes []uint64 // one per spectrum carried, in op order
	why    string   // first failure's reason
}

func (l *driverLog) record(o op, why string, hashes ...uint64) {
	if o.failed && l.why == "" {
		l.why = why
	}
	l.ops = append(l.ops, o)
	l.hashes = append(l.hashes, hashes...)
}

// bodies holds pre-marshalled single-spectrum /search bodies for a range
// of the spectrum stream, split around the scan number so each request can
// carry a unique one: the scan is the request identity that correlates
// spans across hops, and the cache keys on content, never on scan.
type bodies struct {
	base  int // stream index of tails[0]
	head  []byte
	tails [][]byte
}

// scanMarker stands in for the scan while a body is marshalled.
const scanMarker = 7777777

// newBodies marshals spectra[lo:hi].
func newBodies(spectra []spectrum.Experimental, lo, hi int) (*bodies, error) {
	b := &bodies{base: lo, tails: make([][]byte, hi-lo)}
	marker := []byte(`"scan":` + strconv.Itoa(scanMarker))
	for i := lo; i < hi; i++ {
		e := spectra[i]
		e.Scan = scanMarker
		doc, err := json.Marshal(api.SearchRequest{Spectra: []api.SpectrumJSON{api.FromExperimental(e)}})
		if err != nil {
			return nil, err
		}
		at := bytes.Index(doc, marker)
		if at < 0 {
			return nil, fmt.Errorf("marshalled request carries no scan field")
		}
		if b.head == nil {
			b.head = append([]byte(nil), doc[:at+len(`"scan":`)]...)
		}
		b.tails[i-lo] = append([]byte(nil), doc[at+len(marker):]...)
	}
	return b, nil
}

// make assembles the body of spectrum idx under scan.
func (b *bodies) make(idx int, scan int64) []byte {
	tail := b.tails[idx-b.base]
	out := make([]byte, 0, len(b.head)+20+len(tail))
	out = append(out, b.head...)
	out = strconv.AppendInt(out, scan, 10)
	return append(out, tail...)
}

// load is the traffic one run sends: which spectra, in what order, under
// which unique scans.
type load struct {
	r      *rig
	c      *corpus
	sc     scale
	tr     *tracer
	bodies *bodies
	seed   uint64

	scan     atomic.Int64 // last scan handed out
	distinct atomic.Int64 // next all-distinct stream index
}

// nextDistinct hands out each distinct spectrum once; -1 when the pool is
// exhausted (the run fails rather than wrap into repeats).
func (ld *load) nextDistinct() int {
	idx := int(ld.distinct.Add(1) - 1)
	if idx >= len(ld.c.Spectra) {
		return -1
	}
	return idx
}

// batchDriver is one closed-loop batch caller: it cycles the shared pool
// in Batch-spectrum slices, starting a share of the pool away from its
// peers so repeats of a spectrum come from different callers.
func (ld *load) batchDriver(ctx context.Context, d, callers int, stop *atomic.Bool, log *driverLog) {
	sc, sess := ld.sc, ld.r.sessions[0]
	off := (d * sc.Pool / callers) / sc.Batch * sc.Batch
	for !stop.Load() && ctx.Err() == nil {
		qs := ld.c.Spectra[off : off+sc.Batch]
		start := ld.tr.now()
		res, err := sess.Search(ctx, qs)
		end := ld.tr.now()
		o := op{start: start, end: end, first: off, n: len(qs), failed: err != nil}
		if err != nil {
			// No workload is meant to fail; a caller that does stops, and
			// the run is reported failed.
			log.record(o, err.Error(), make([]uint64, len(qs))...)
			return
		}
		if ld.tr.on.Load() {
			ld.tr.add(span{Name: spanEngine, Start: start, End: end, Req: ld.scan.Add(1)})
		}
		hashes := make([]uint64, len(qs))
		for i, psms := range res.PSMs {
			hashes[i] = psmHash(psms)
		}
		log.record(o, "", hashes...)
		off = (off + sc.Batch) % sc.Pool
	}
}

// request sends spectrum idx as one /search and records the outcome. start
// is the instant the latency is measured from: the send time in a closed
// loop, the intended send time in an open one. It reports whether the
// request failed.
func (ld *load) request(ctx context.Context, client *http.Client, idx int, start int64, log *driverLog) bool {
	scan := ld.scan.Add(1)
	body := ld.bodies.make(idx, scan)
	sent := ld.tr.now()
	status, data, err := post(ctx, client, ld.r.url+"/search", body)
	end := ld.tr.now()
	if ld.tr.on.Load() {
		ld.tr.add(span{Name: spanClient, Start: sent, End: end, Req: scan})
	}
	o := op{start: start, end: end, first: idx, n: 1}
	var why string
	echo, tail, framed := splitReply(data)
	switch {
	case err != nil:
		why = err.Error()
	case status != http.StatusOK:
		why = fmt.Sprintf("status %d: %.120s", status, data)
	case !framed || echo != scan:
		why = fmt.Sprintf("reply does not answer scan %d: %.120s", scan, data)
	}
	o.failed = why != ""
	log.record(o, why, tail)
	return o.failed
}

// httpDriver is one closed-loop /search caller on its own keep-alive
// connection.
func (ld *load) httpDriver(ctx context.Context, d int, stop *atomic.Bool, log *driverLog) {
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	// Each zipf caller has its own favourites: its ranks start a share of
	// the pool away from its peers', so the spectra that carry most of the
	// traffic are a few per caller and a seed's choice of them decides less
	// of what a request costs.
	var zipf *gen.Zipf
	favourite := d * ld.sc.Pool / ld.r.w.callers()
	if ld.r.w.Zipf {
		zipf = gen.NewZipf(gen.NewRNG(ld.seed<<8+uint64(d)+1), ld.sc.Pool, zipfExponent)
	}
	for !stop.Load() && ctx.Err() == nil {
		var idx int
		if zipf != nil {
			idx = (favourite + zipf.Next()) % ld.sc.Pool
		} else if idx = ld.nextDistinct(); idx < 0 {
			log.record(op{failed: true, n: 1}, "distinct pool exhausted", 0)
			return
		}
		if ld.request(ctx, client, idx, ld.tr.now(), log) {
			return
		}
	}
}

// stepResult is one open-loop step: requests sent on a Poisson schedule
// whatever the replies do, each timed from its intended send time.
type stepResult struct {
	rate      float64
	log       driverLog
	lagMs     []float64 // how late the generator actually sent each request
	backlog   int       // requests still unanswered when the last one was due
	exhausted bool
}

// maxOutstanding bounds an open-loop step's in-flight requests. The
// server's admission queue holds 256, so reaching this means the step is
// far past saturation; the generator then runs late and says so.
const maxOutstanding = 512

// openLoopStep runs one step at rate for dur.
func (ld *load) openLoopStep(ctx context.Context, rate float64, dur time.Duration, rng *gen.RNG) *stepResult {
	res := &stepResult{rate: rate}
	transport := &http.Transport{MaxIdleConnsPerHost: maxOutstanding}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var mu sync.Mutex
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	sem := make(chan struct{}, maxOutstanding)
	t0 := ld.tr.now()
	for _, due := range poissonSchedule(rng, rate, int64(dur)) {
		if !sleepUntil(ctx, ld.tr, t0+due) {
			break
		}
		idx := ld.nextDistinct()
		if idx < 0 {
			res.exhausted = true
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		lag := ms(ld.tr.now() - (t0 + due))
		outstanding.Add(1)
		wg.Add(1)
		go func(intended int64) {
			defer wg.Done()
			var one driverLog
			ld.request(ctx, client, idx, intended, &one)
			outstanding.Add(-1)
			<-sem
			mu.Lock()
			res.log.record(one.ops[0], one.why, one.hashes...)
			res.lagMs = append(res.lagMs, lag)
			mu.Unlock()
		}(t0 + due)
	}
	res.backlog = int(outstanding.Load())
	wg.Wait()
	return res
}

// sleepUntil blocks until the tracer clock reads t; false if ctx ended
// first.
func sleepUntil(ctx context.Context, tr *tracer, t int64) bool {
	d := time.Duration(t - tr.now())
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// snapshot is the process's resource meters at one slice boundary.
type snapshot struct {
	t     int64  // tracer clock
	cpuNs int64  // user + system CPU of the process
	alloc uint64 // cumulative heap bytes allocated
}

func takeSnapshot(tr *tracer) snapshot {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	cpu, _ := rusage()
	return snapshot{t: tr.now(), cpuNs: cpu, alloc: sample[0].Value.Uint64()}
}

// counters are the program's own lifetime counters, read from outside at
// the window's edges; the window's share is the difference.
type counters struct {
	shards   []engine.RankStats
	searched []int64 // per session under test
	sched    []engine.SchedulerStats
	servers  []api.StatsResponse
	router   *api.RouterStatsResponse
	mem      runtime.MemStats
}

func readCounters(r *rig) counters {
	var c counters
	c.shards = r.shardStats()
	for _, s := range r.sessions {
		c.sched = append(c.sched, s.SchedulerStats())
		c.searched = append(c.searched, s.Searched())
	}
	for _, s := range r.servers {
		c.servers = append(c.servers, s.Stats())
	}
	if r.router != nil {
		st := r.router.Stats()
		c.router = &st
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// window is one measured closed-loop window and what was read around it.
type window struct {
	callers       int
	snaps         []snapshot // Slices+1 boundaries
	ticks         []int64    // tracer clock at the Slices*ticksPerSlice+1 tick boundaries
	logs          []*driverLog
	before, after counters
	steps         []*stepResult // open-loop steps that followed (traced serve-miss)
}

// ticksPerSlice cuts every slice into the ticks tracing is switched at: a
// tenth of a second at full scale, so that a burst of interference from a
// shared machine falls on traced and untraced ticks alike.
const ticksPerSlice = 8

// tracedTick reports whether tick i of a traced run records spans: the
// pattern off,on,on,off repeats, so traced and untraced ticks interleave
// and a drift across the window prices into neither side.
func tracedTick(i int) bool { return i%4 == 1 || i%4 == 2 }

// runWindow drives the rig closed-loop: warm-up, then the measured window
// cut into slices and ticks, then (traced serve-miss only) the open-loop
// steps.
func (ld *load) runWindow(ctx context.Context, traced bool) *window {
	sc := ld.sc
	win := &window{callers: ld.r.w.callers()}
	closed, stepDur := sc.Window, time.Duration(0)
	if traced && ld.r.w.OpenLoop {
		// The steps are diagnostics; they take their time out of the
		// closed loop so a traced run is no longer than an untraced one.
		stepDur = sc.Window * 15 / 100
		closed = sc.Window - time.Duration(len(openLoopRates))*stepDur
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for d := 0; d < win.callers; d++ {
		log := &driverLog{}
		win.logs = append(win.logs, log)
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			if ld.r.w.Front == frontSession {
				ld.batchDriver(ctx, d, win.callers, &stop, log)
			} else {
				ld.httpDriver(ctx, d, &stop, log)
			}
		}(d)
	}

	t0 := ld.tr.now() + int64(sc.WarmUp)
	sleepUntil(ctx, ld.tr, t0)
	win.before = readCounters(ld.r)
	ticks := sc.Slices * ticksPerSlice
	tick := int64(closed) / int64(ticks)
	for i := 0; i <= ticks; i++ {
		sleepUntil(ctx, ld.tr, t0+int64(i)*tick)
		ld.tr.on.Store(traced && i < ticks && tracedTick(i))
		win.ticks = append(win.ticks, ld.tr.now())
		if i%ticksPerSlice == 0 {
			win.snaps = append(win.snaps, takeSnapshot(ld.tr))
		}
	}
	win.after = readCounters(ld.r)
	stop.Store(true)
	wg.Wait()

	if stepDur > 0 {
		ld.tr.on.Store(true)
		rng := gen.NewRNG(ld.seed ^ 0x9e3779b97f4a7c15)
		for _, rate := range openLoopRates {
			win.steps = append(win.steps, ld.openLoopStep(ctx, rate, stepDur, rng))
		}
		ld.tr.on.Store(false)
	}
	return win
}
