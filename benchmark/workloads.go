package main

import (
	"fmt"
	"runtime"
	"time"

	"lbe/internal/engine"
	"lbe/internal/mass"
	"lbe/internal/mods"
	"lbe/internal/server"
)

// front is the boundary a workload's callers talk to.
type front int

const (
	frontSession front = iota // Session.Search called directly
	frontServer               // POST /search on one server.Handler()
	frontScatter              // POST /search on a scatter router over two holders
)

// workload is one set of inputs the benchmark runs. The why of each is in
// BENCHMARK.json and benchmark/README.md.
type workload struct {
	Name     string
	Open     bool  // store built with an open precursor window (the paper's ∆M = ∞)
	Front    front // where the callers enter
	Zipf     bool  // requests drawn zipf-skewed from the shared pool, not all distinct
	OpenLoop bool  // the traced run adds open-loop Poisson steps
}

var workloads = []workload{
	{Name: "batch-open", Open: true, Front: frontSession},
	{Name: "batch-narrow", Front: frontSession},
	{Name: "serve-miss", Front: frontServer, OpenLoop: true},
	{Name: "serve-zipf", Front: frontServer, Zipf: true},
	{Name: "scatter-2x", Front: frontScatter},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// distinctRequests reports whether every request carries a spectrum no
// other request does: the served workloads that must miss the cache.
func (w workload) distinctRequests() bool { return w.Front != frontSession && !w.Zipf }

// storeKind names the store a workload runs over, the key golden digests
// are pinned under.
func (w workload) storeKind() string {
	if w.Open {
		return "open"
	}
	return "narrow"
}

const (
	// zipfExponent skews serve-zipf's draws so the hit ratio passes 0.9
	// once the pool's head is resident.
	zipfExponent = 1.1
	// narrowTolDa is the narrow workloads' precursor window.
	narrowTolDa = 0.5
	// sloLimitMs is the latency limit on the open-loop steps' p95.
	sloLimitMs = 10.0
)

// openLoopRates are the open-loop steps' arrival rates, requests/second.
var openLoopRates = []float64{150, 300, 450}

// scale sizes a run. fullScale is what the benchmark measures; smokeScale
// shrinks every dimension so the unit tests can drive all five workloads
// in a couple of seconds.
type scale struct {
	Rows         int // index rows the store holds
	Shards       int // in-process LBE partitions
	Pool         int // shared query pool (a multiple of Batch): batch drivers cycle it, serve-zipf draws from it
	GoldenSample int // pool prefix whose answers are pinned per seed
	Batch        int // spectra per Session.Search call on batch-*
	Probe        int // spectra each layer probe runs
	Setups       int // set-ups per run; setup_s is their median
	Slices       int // equal slices the measured window is cut into
	WarmUp       time.Duration
	Window       time.Duration
}

// servedCallersPerCore is how many closed-loop /search callers the served
// workloads run per core; batch-* run one driver per core. A server is
// built for more clients than cores — coalescing is pointless otherwise —
// and with only one caller per core this one is bistable: the machine
// idles between 2 ms flushes, and whether a batch's second scheduler
// worker wakes in time to take (and allocate a Scratch for) any chunk
// flips from run to run, moving cpu_ms_per_query by 30 % and
// alloc_kb_per_query by 40 % on the same tree.
const servedCallersPerCore = 4

// maxServedCallers caps the served callers at half a coalesced batch
// (server.DefaultConfig().BatchSize is 64), reached at 8 cores. Below a
// full batch no collection of the coalescer fills, so every collection
// ages the whole FlushInterval and a caller, which is in at most one
// collection at a time, is answered at most once per FlushInterval: the
// ceiling the all-distinct pool is sized from.
const maxServedCallers = 32

// callers is the closed-loop caller count of the workload on this machine.
func (w workload) callers() int {
	if w.Front == frontSession {
		return runtime.GOMAXPROCS(0)
	}
	return min(servedCallersPerCore*runtime.GOMAXPROCS(0), maxServedCallers)
}

// fullScale is the paper's 49.45 M-spectra index at 1/100. The contract's
// time cap (114 runs in 3420 s) fixes the rest: three set-ups, one second
// of warm-up, and a window of -seconds.
func fullScale(seconds int) scale {
	return scale{
		Rows:         494500,
		Shards:       4,
		Pool:         2048,
		GoldenSample: 256,
		Batch:        16,
		Probe:        256,
		Setups:       3,
		Slices:       12,
		WarmUp:       time.Second,
		Window:       time.Duration(seconds) * time.Second,
	}
}

// smokeScale is fullScale at 1/100 with a 240 ms window.
func smokeScale() scale {
	return scale{
		Rows:         4945,
		Shards:       4,
		Pool:         128,
		GoldenSample: 16,
		Batch:        8,
		Probe:        16,
		Setups:       1,
		Slices:       12,
		WarmUp:       20 * time.Millisecond,
		Window:       240 * time.Millisecond,
	}
}

// stopSlack is how long past the window's end a caller may still be sending:
// the counters are read (stopping the world) before the callers are told to
// stop.
const stopSlack = 250 * time.Millisecond

// distinct is how many all-distinct spectra callers closed-loop callers can
// send in a run of this scale, whatever the machine and however fast the
// program: the coalescer answers a caller at most once per FlushInterval
// (see maxServedCallers), from the first request of the warm-up to the last
// of the window. The run still fails rather than wrap if the pool runs out,
// but only a change to the coalescer itself can bring that about.
func (sc scale) distinct(callers int) int {
	perCaller := int((sc.WarmUp+sc.Window+stopSlack)/serverConfig().FlushInterval) + 1
	return callers * perCaller
}

// modConfig is the paper's modification set capped at two modified
// residues per peptide, the fan-out every figure of this repo uses.
func modConfig() mods.Config {
	return mods.Config{Mods: mods.PaperSet(), MaxPerPep: 2}
}

// sessionConfig is production defaults — cyclic policy, stealing on,
// top-K 10, one scheduler worker per core — over the workload's store.
func (w workload) sessionConfig(sc scale) engine.SessionConfig {
	cfg := engine.DefaultConfig()
	cfg.Params.Mods = modConfig()
	if !w.Open {
		cfg.Params.PrecursorTol = mass.Da(narrowTolDa)
	}
	return engine.SessionConfig{Config: cfg, Shards: sc.Shards}
}

// serverConfig is server.DefaultConfig with the answer cache lbe-serve
// ships switched on.
func serverConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.CacheBytes = 64 << 20
	return cfg
}
