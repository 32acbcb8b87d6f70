// Package router is the multi-node serving tier: an HTTP front-end that
// fans /search requests over a set of lbe-serve replicas, extending the
// least-loaded dispatch of internal/sched from workers within one node to
// replicas across nodes — the cluster-level analogue of HiCOPS-style
// overlapped scheduling the ROADMAP points at.
//
// There is one topology, the paper's: a database cut into p >= 1
// shard-sets (lbe-index -shard-sets), each searched where it lives, the
// per-set best matches merged at the front. Every replica is a holder of
// one set and says which on /healthz; a replica announcing no shard_set
// serves a whole store, which is the one-set partition {set 0 of 1}. The
// router discovers the shape from those announcements — no flag, no
// topology file — and fans each /search to one healthy holder per set
// (see scatter.go). With one set the holder's reply is relayed byte for
// byte; with several the per-set top-K merge into the bytes a whole-store
// session would render (api.MergeSearchResponses). A set with no healthy
// holder fails the query explicitly — partial coverage never truncates
// silently.
//
// The router keeps a replica registry that it probes periodically:
// /healthz for liveness, the announced slice and the store-consistency
// digest, /stats for the live load figures (admission queue length and
// in-flight batches). Dispatch picks the least-loaded healthy holder of
// a set when its load snapshot is fresh, and falls back to round-robin
// when every snapshot has gone stale. A holder that fails an attempt is
// marked down until the next probe revives it, and the failed request
// fails over to a different holder of the same set within a bounded
// retry budget — searches are pure reads, so re-sending is safe.
//
// Consistency gate: holders of one set are only mixed when their digests
// (engine.Session.Digest, surfaced on /healthz) agree. The partition
// shape is the lowest-indexed healthy replica's; each set's digest is
// its lowest-indexed conforming healthy holder's; healthy replicas
// announcing another shape or another digest are excluded from routing
// and flagged in /stats — serving a blend of two databases would return
// answers no single Session could produce. The cluster digest composes
// the per-set digests (engine.ComposeClusterDigest; one set's digest is
// the cluster's).
//
// The router serves the same /search, /healthz, /stats and /metrics
// surface as a replica, so lbe-client (and anything else speaking
// internal/api) works unchanged through it.
package router

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lbe/internal/api"
	"lbe/internal/qcache"
)

// Config tunes the routing tier. The zero value of any field falls back
// to its DefaultConfig value.
type Config struct {
	// ProbeInterval is how often every replica's /healthz and /stats are
	// refreshed.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange.
	ProbeTimeout time.Duration
	// RequestTimeout is the per-attempt deadline for a proxied /search.
	RequestTimeout time.Duration
	// FailoverRetries is how many additional replicas a failed /search
	// attempt may try (each attempt goes to a replica not yet tried).
	// Negative means no failover.
	FailoverRetries int
	// StatsStaleAfter bounds how old a replica's load snapshot may be and
	// still drive least-loaded dispatch; with no fresh snapshot among the
	// candidates, dispatch falls back to round-robin.
	StatsStaleAfter time.Duration
	// MaxBodyBytes caps the /search request body.
	MaxBodyBytes int64
	// CacheBytes sizes the merged-response answer cache (in resident
	// bytes). 0 disables caching — the zero value opts out, it is not
	// defaulted.
	CacheBytes int64
	// Scatter is ignored: the topology is discovered from the holders'
	// announcements, and a whole store is the one-set partition.
	//
	// Deprecated: kept only because benchmark/rig.go still sets it and
	// may not change in the same PR that removed the mode switch;
	// deleting the field is a one-line follow-up there.
	Scatter bool
}

// DefaultConfig returns routing defaults: 2s probes with a 1s timeout,
// 30s per-attempt deadline, one failover retry, snapshots stale after
// three probe intervals.
func DefaultConfig() Config {
	return Config{
		ProbeInterval:   2 * time.Second,
		ProbeTimeout:    time.Second,
		RequestTimeout:  30 * time.Second,
		FailoverRetries: 1,
		StatsStaleAfter: 6 * time.Second,
		MaxBodyBytes:    32 << 20,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = d.ProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = d.ProbeTimeout
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.FailoverRetries < 0 {
		c.FailoverRetries = 0
	}
	if c.StatsStaleAfter <= 0 {
		c.StatsStaleAfter = 3 * c.ProbeInterval
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	return c
}

// maxIdlePerHolder is how many idle keep-alive connections the router
// keeps open to each holder: one per request it may have outstanding
// there, up to a holder's default admission queue depth (a deeper queue
// would answer 429 anyway). net/http's default keeps two. A holder's
// coalescer answers a whole batch of callers at once, so with two idle
// slots every larger scatter round closed the rest of its connections and
// the next round paid a TCP handshake per set before its payload.
const maxIdlePerHolder = 256

// replica is one registry entry: a typed client plus the probed state.
type replica struct {
	url    string
	client *api.Client // Retries: 0 — failover picks a different replica instead; its own keep-alive pool

	mu       sync.Mutex
	healthy  bool
	mismatch bool              // digest differs from the cluster digest
	digest   string            // last probed digest
	shardSet *api.ShardSetJSON // the slice it holds ({0 of 1} when it announces none); nil before the first probe
	groups   int
	probedAt time.Time // last successful health probe
	statsAt  time.Time // last successful stats snapshot
	queueLen int       // replica's admission queue length at statsAt
	busy     int       // replica's in-flight batch count at statsAt
	stats    api.StatsResponse

	inflight  atomic.Int64 // requests this router currently has on the replica
	routed    atomic.Int64 // requests the replica answered (any pass-through status)
	failed    atomic.Int64 // attempts that errored or answered retryably
	bytesSent atomic.Int64 // /search request body bytes sent, every attempt
	bytesRecv atomic.Int64 // /search reply body bytes received, any status
	dials     atomic.Int64 // connections opened to the replica, probes included
}

// newReplica registers the replica at base with its own client and
// connection pool.
func newReplica(base string, requestTimeout time.Duration) *replica {
	r := &replica{url: base}
	var dialer net.Dialer
	r.client = api.New(base)
	r.client.HTTPClient = &http.Client{Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			r.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: maxIdlePerHolder,
		IdleConnTimeout:     90 * time.Second,
	}}
	r.client.Retries = 0 // the router fails over across replicas instead
	r.client.Timeout = requestTimeout
	return r
}

// markDown records a failed probe or proxied attempt; the next
// successful probe revives the replica.
func (r *replica) markDown() {
	r.mu.Lock()
	r.healthy = false
	r.mu.Unlock()
}

// Router fans /search requests over the replica registry. Create with
// New, mount Handler, call Shutdown to drain.
type Router struct {
	cfg      Config
	replicas []*replica

	rr atomic.Uint64 // round-robin cursor and least-loaded tie-breaker

	routed            atomic.Int64
	failovers         atomic.Int64
	rejectedDrain     atomic.Int64
	rejectedNoReplica atomic.Int64
	rejectedSetDown   atomic.Int64 // requests refused for an uncovered shard-set

	quit      chan struct{}
	probeDone chan struct{}
	reqWG     sync.WaitGroup

	// probeCtx is the probe loop's lifecycle root; stopProbes cancels it
	// on Shutdown so a probe blocked in a slow Health call aborts
	// immediately instead of running out its timeout.
	probeCtx   context.Context
	stopProbes context.CancelFunc

	mu            sync.RWMutex
	draining      bool
	clusterDigest string
	scatter       *scatterState // discovered shard-set topology; nil while no replica is healthy

	// cache holds merged 200 response bodies keyed under the cluster
	// digest; nil when Config.CacheBytes is 0.
	cache *qcache.Cache[[]byte]
}

// New builds a router over the replica base URLs and starts its probe
// loop. The first probe round runs synchronously so a freshly
// constructed router can route immediately when its replicas are up.
func New(replicaURLs []string, cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(replicaURLs) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	seen := make(map[string]bool, len(replicaURLs))
	rt := &Router{
		cfg:       cfg,
		quit:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	//lbe:ignore ctxflow the router owns its probe lifecycle; this root is cancelled by Shutdown, and callers bound requests via their own contexts
	rt.probeCtx, rt.stopProbes = context.WithCancel(context.Background())
	if cfg.CacheBytes > 0 {
		rt.cache = qcache.New[[]byte](
			qcache.Config{MaxBytes: cfg.CacheBytes},
			func(b []byte) int { return len(b) })
	}
	for _, raw := range replicaURLs {
		u, err := url.Parse(strings.TrimRight(strings.TrimSpace(raw), "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: replica %q is not an absolute URL", raw)
		}
		base := u.String()
		if seen[base] {
			return nil, fmt.Errorf("router: replica %s listed twice", base)
		}
		seen[base] = true
		rt.replicas = append(rt.replicas, newReplica(base, cfg.RequestTimeout))
	}
	rt.probeAll()
	go rt.probeLoop()
	return rt, nil
}

// probeLoop refreshes the registry until Shutdown.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			rt.probeAll()
		case <-rt.quit:
			return
		}
	}
}

// probeAll refreshes every replica concurrently, then re-derives the
// topology, the cluster digest and each replica's consistency flag.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, r := range rt.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			rt.probeOne(r)
		}(r)
	}
	wg.Wait()
	rt.gate()
}

// setClusterDigest publishes the freshly derived cluster digest. A store
// change observed by the digest gate eagerly invalidates the answer
// cache. Keys embed the digest, so correctness never depends on this
// purge — it reclaims the retired entries' memory and makes the
// invalidation visible in the counters. A full outage (digest gone) is
// not a store change: entries stay for the replicas' return.
func (rt *Router) setClusterDigest(digest string, sc *scatterState) {
	rt.mu.Lock()
	prev := rt.clusterDigest
	rt.clusterDigest = digest
	rt.scatter = sc
	rt.mu.Unlock()
	if rt.cache != nil && prev != "" && digest != "" && digest != prev {
		rt.cache.Purge()
	}
}

// probeOne refreshes one replica's health and load snapshot.
func (rt *Router) probeOne(r *replica) {
	ctx, cancel := context.WithTimeout(rt.probeCtx, rt.cfg.ProbeTimeout)
	defer cancel()
	h, err := r.client.Health(ctx)
	if err != nil || h.Status != "ok" {
		r.markDown()
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.healthy = true
	r.digest = h.Digest
	r.groups = h.Groups
	r.shardSet = h.ShardSet
	if r.shardSet == nil {
		// No announcement means a whole store: the one-set partition.
		// TopK stays 0 — a one-set reply is relayed, never re-cut.
		r.shardSet = &api.ShardSetJSON{Set: 0, Sets: 1, TotalShards: h.Shards}
	}
	r.probedAt = now
	r.mu.Unlock()

	st, err := r.client.Stats(ctx)
	if err != nil {
		return // health stands; dispatch just loses the load signal
	}
	r.mu.Lock()
	r.statsAt = time.Now()
	r.queueLen = st.QueueLen
	r.busy = st.InFlight
	r.stats = *st
	r.mu.Unlock()
}

// heldSet returns the shard-set the replica may receive traffic for and
// the groups in its slice; ok is false while it is down or gated out.
func (r *replica) heldSet() (set, groups int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.healthy || r.mismatch || r.shardSet == nil {
		return 0, 0, false
	}
	return r.shardSet.Set, r.groups, true
}

// load returns the replica's dispatch score and whether its snapshot is
// fresh enough to trust. The score blends the replica's own admission
// queue and busy batches (probed) with the router's live count of
// requests it has outstanding there.
func (r *replica) load(staleAfter time.Duration) (score int64, fresh bool) {
	r.mu.Lock()
	queue, busy, at := r.queueLen, r.busy, r.statsAt
	r.mu.Unlock()
	score = int64(queue+busy) + r.inflight.Load()
	return score, !at.IsZero() && time.Since(at) <= staleAfter
}

// pick selects the dispatch target among the routable holders of set
// not in tried: the least-loaded one with a fresh load snapshot, or plain
// round-robin when no candidate's snapshot is fresh.
func (rt *Router) pick(set int, tried map[*replica]bool) *replica {
	var candidates []*replica
	for _, r := range rt.replicas {
		if held, _, ok := r.heldSet(); ok && held == set && !tried[r] {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	cursor := int(rt.rr.Add(1)-1) % len(candidates)

	// Scan from the round-robin cursor so equal scores rotate instead of
	// pinning an idle cluster's whole trickle onto the first replica.
	best, bestScore := -1, int64(0)
	for i := range candidates {
		j := (cursor + i) % len(candidates)
		score, fresh := candidates[j].load(rt.cfg.StatsStaleAfter)
		if !fresh {
			continue
		}
		if best == -1 || score < bestScore {
			best, bestScore = j, score
		}
	}
	if best >= 0 {
		return candidates[best]
	}
	return candidates[cursor]
}

// Handler returns the router's HTTP routes — the same surface a replica
// serves.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", rt.handleSearch)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/stats", rt.handleStats)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

// isDraining reports whether Shutdown has begun.
func (rt *Router) isDraining() bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.draining
}

// admit registers one proxied request with the drain accounting; it
// fails when the router is draining.
func (rt *Router) admit() bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.draining {
		return false
	}
	rt.reqWG.Add(1)
	return true
}

// handleSearch answers one /search request: from the answer cache when
// enabled and hit, otherwise by forwarding the raw body to one holder
// per shard-set (scatterSearch).
func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		api.WriteError(w, http.StatusMethodNotAllowed, "POST a SearchRequest JSON body")
		return
	}
	if !rt.admit() {
		rt.rejectedDrain.Add(1)
		api.WriteError(w, http.StatusServiceUnavailable, "router is draining")
		return
	}
	defer rt.reqWG.Done()

	body, err := api.ReadBody(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		api.WriteBodyError(w, err)
		return
	}

	if rt.cache != nil {
		rt.searchCached(w, r, body)
		return
	}
	rt.scatterSearch(w, r, body)
}

// liveCoverage walks the routable holders once: how many of the sets
// have one right now (a transport failure marks a holder down between
// probes), and the groups of one holder per set — each holder carries a
// slice of the store, and one slice per set adds up to the whole store's.
func (rt *Router) liveCoverage(sets int) (covered, groups int) {
	seen := make([]bool, sets)
	for _, rep := range rt.replicas {
		// The bounds check covers a gate re-deriving the shape between
		// the caller's read of it and this walk.
		if set, g, ok := rep.heldSet(); ok && set >= 0 && set < sets && !seen[set] {
			seen[set] = true
			covered++
			groups += g
		}
	}
	return covered, groups
}

// handleHealthz answers with the cluster view: ok while every shard-set
// has a consistent healthy holder, since a partially covered partition
// cannot answer any query. Shards and Groups describe the whole logical
// store.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	digest := rt.clusterDigest
	sc := rt.scatter
	rt.mu.RUnlock()
	h := api.HealthResponse{Status: "ok", Digest: digest}
	covered := false
	if sc != nil {
		var n int
		n, h.Groups = rt.liveCoverage(sc.sets)
		h.Shards, covered = sc.totalShards, n == sc.sets
	}
	switch {
	case rt.isDraining():
		h.Status = "draining"
	case !covered:
		h.Status = "unavailable"
	}
	if h.Status != "ok" {
		api.WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	api.WriteJSON(w, http.StatusOK, h)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, rt.Stats())
}

// handleMetrics renders the aggregate and routing figures in Prometheus
// text form.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := rt.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(api.FormatRouterMetrics(&st))
}

// ageMillis renders a probe timestamp as an age, -1 before the first
// success.
func ageMillis(at time.Time, now time.Time) int64 {
	if at.IsZero() {
		return -1
	}
	return now.Sub(at).Milliseconds()
}

// Stats snapshots the routing counters, the replica registry, and the
// aggregate of the replicas' own stats (scalar sums over replicas with a
// snapshot; per-shard and per-worker detail stays on the replicas).
func (rt *Router) Stats() api.RouterStatsResponse {
	rt.mu.RLock()
	digest := rt.clusterDigest
	draining := rt.draining
	sc := rt.scatter
	rt.mu.RUnlock()
	out := api.RouterStatsResponse{
		Status:            "ok",
		Digest:            digest,
		Routed:            rt.routed.Load(),
		Failovers:         rt.failovers.Load(),
		RejectedDrain:     rt.rejectedDrain.Load(),
		RejectedNoReplica: rt.rejectedNoReplica.Load(),
		Cache:             api.CacheStats(rt.cache),
	}
	agg := &out.Aggregate
	if sc != nil {
		// Replica snapshots describe shard-set slices; the aggregate
		// describes the whole logical store.
		agg.Shards = sc.totalShards
		_, agg.Groups = rt.liveCoverage(sc.sets)
		out.Scatter = &api.RouterScatterJSON{
			Sets:            sc.sets,
			TotalShards:     sc.totalShards,
			Covered:         sc.covered,
			SetDigests:      append([]string(nil), sc.setDigests...),
			RejectedSetDown: rt.rejectedSetDown.Load(),
		}
	}
	if draining {
		out.Status = "draining"
	}
	now := time.Now()
	agg.Status = out.Status
	agg.Digest = digest
	for _, rep := range rt.replicas {
		rep.mu.Lock()
		rj := api.RouterReplicaJSON{
			URL:            rep.url,
			Healthy:        rep.healthy,
			DigestMismatch: rep.mismatch,
			Digest:         rep.digest,
			ShardSet:       rep.shardSet,
			QueueLen:       rep.queueLen,
			InFlight:       rep.busy,
			RouterInFlight: rep.inflight.Load(),
			Routed:         rep.routed.Load(),
			Failed:         rep.failed.Load(),
			BytesSent:      rep.bytesSent.Load(),
			BytesReceived:  rep.bytesRecv.Load(),
			Dials:          rep.dials.Load(),
			ProbeAgeMillis: ageMillis(rep.probedAt, now),
			StatsAgeMillis: ageMillis(rep.statsAt, now),
		}
		st, hasStats := rep.stats, !rep.statsAt.IsZero()
		rep.mu.Unlock()
		out.BytesSent += rj.BytesSent
		out.BytesReceived += rj.BytesReceived
		if hasStats {
			agg.Add(st)
		}
		out.Replicas = append(out.Replicas, rj)
	}
	return out
}

// Shutdown drains the router: admission stops (503), the probe loop
// exits, and Shutdown returns once every proxied request in flight has
// been answered, or ctx expires. Either way it closes the idle
// connections to the replicas on its way out.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.mu.Lock()
	already := rt.draining
	rt.draining = true
	rt.mu.Unlock()
	if !already {
		close(rt.quit)
		rt.stopProbes()
	}
	<-rt.probeDone
	defer func() {
		for _, r := range rt.replicas {
			r.client.HTTPClient.CloseIdleConnections()
		}
	}()

	done := make(chan struct{})
	go func() {
		rt.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close force-drains the router, for tests and defer-style cleanup.
// In-flight proxied requests are abandoned to their own deadlines.
func (rt *Router) Close() {
	// Deriving from the probe root keeps Close context-free; it works
	// even after the root is cancelled because expired is cancelled
	// immediately anyway.
	expired, cancel := context.WithCancel(rt.probeCtx)
	cancel()
	_ = rt.Shutdown(expired)
}
