// Package server exposes a built engine.Session as a long-running HTTP
// search service: the always-on serving shape the ROADMAP's north star
// asks for, on top of the engine's Session.
//
// The service admits POST /search requests (JSON spectra) through a
// bounded queue, coalesces concurrent small requests into merged engine
// batches — many tiny messages become few large ones, the
// communication-lower-bound guidance of the HiCOPS line of work — and
// scatters each merged result back to its callers. Results are exactly
// what Session.Search would return for the same queries, because the
// engine's output is invariant to batch composition.
//
// Operational endpoints: /healthz (liveness, flips to 503 while
// draining, and carries the session's store digest for the router's
// consistency gate), /stats (session-lifetime engine figures plus
// admission and coalescing counters) and /metrics (the same figures in
// Prometheus text form). Shutdown stops admission, flushes the queue,
// finishes in-flight batches, and answers every accepted request before
// returning.
//
// The JSON wire contract is defined once in internal/api and shared with
// lbe-router, cmd/lbe-client and the bench load generators.
package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/qcache"
	"lbe/internal/spectrum"
)

// Config tunes the serving layer. The zero value of any field falls back
// to its DefaultConfig value.
type Config struct {
	// BatchSize caps the queries merged into one coalesced engine batch.
	// The one exception is a single request that alone carries more than
	// BatchSize queries (bounded by MaxQueriesPerRequest): requests are
	// atomic, so it dispatches as one oversized batch of its own.
	BatchSize int
	// FlushInterval bounds how long a partial batch waits for company
	// before it is searched anyway; it is the latency the slowest request
	// in a quiet period pays for batching.
	FlushInterval time.Duration
	// QueueDepth bounds the admission queue (in requests). A full queue
	// rejects with HTTP 429 — backpressure instead of unbounded memory.
	QueueDepth int
	// MaxInFlight bounds concurrently searching merged batches. When all
	// slots are busy the coalescer stalls and the queue fills.
	MaxInFlight int
	// RequestTimeout is the per-request deadline, applied on top of the
	// client's own context; 0 or negative disables it.
	RequestTimeout time.Duration
	// MaxQueriesPerRequest caps spectra in one request (HTTP 413 over).
	MaxQueriesPerRequest int
	// MaxBodyBytes caps the /search request body.
	MaxBodyBytes int64
	// CacheBytes sizes the content-addressed answer cache (in resident
	// bytes). 0 disables caching — the zero value opts out, it is not
	// defaulted.
	CacheBytes int64
}

// DefaultConfig returns serving defaults: 64-query merges flushed every
// 2ms, a 256-request queue, 4 concurrent batches, 30s request deadline.
func DefaultConfig() Config {
	return Config{
		BatchSize:            64,
		FlushInterval:        2 * time.Millisecond,
		QueueDepth:           256,
		MaxInFlight:          4,
		RequestTimeout:       30 * time.Second,
		MaxQueriesPerRequest: 1024,
		MaxBodyBytes:         32 << 20,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = d.FlushInterval
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = d.MaxInFlight
	}
	if c.MaxQueriesPerRequest <= 0 {
		c.MaxQueriesPerRequest = d.MaxQueriesPerRequest
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	return c
}

// Server is the HTTP serving layer over one engine.Session. Create with
// New, mount Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg      Config
	sess     *engine.Session
	peptides []string // global peptide list for sequence reporting; may be nil

	queue chan *request
	sem   chan struct{} // in-flight batch slots
	quit  chan struct{} // closed once when draining starts

	baseCtx    context.Context // parent of every batch search
	cancelBase context.CancelFunc

	coalesceDone chan struct{}
	reqWG        sync.WaitGroup // accepted requests not yet answered
	batchWG      sync.WaitGroup // batch workers in flight

	mu       sync.RWMutex
	draining bool

	// searchFn runs one merged batch; it is sess.Search except in tests,
	// which substitute a controllable stand-in.
	searchFn func(context.Context, []spectrum.Experimental) (*engine.Result, error)

	// cache is the content-addressed answer cache consulted before the
	// coalescer; nil when Config.CacheBytes is 0. keyer binds its keys
	// to the session's digest and search knobs.
	cache *qcache.Cache[[]engine.PSM]
	keyer qcache.Keyer

	accepted       atomic.Int64
	rejectedQueue  atomic.Int64
	rejectedDrain  atomic.Int64
	batches        atomic.Int64
	batchedQueries atomic.Int64
}

// New wraps a built session in a serving layer and starts its collector.
// peptides is the global peptide list the session was built over, used to
// report matched sequences; pass nil to omit sequences from responses.
// The caller keeps ownership of the session but must not Close it before
// Shutdown returns.
func New(sess *engine.Session, peptides []string, cfg Config) *Server {
	cfg = cfg.withDefaults()
	//lbe:ignore ctxflow the server owns its drain lifecycle; Shutdown cancels this root, and handlers bound work via each request's context
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		sess:         sess,
		peptides:     peptides,
		queue:        make(chan *request, cfg.QueueDepth),
		sem:          make(chan struct{}, cfg.MaxInFlight),
		quit:         make(chan struct{}),
		baseCtx:      ctx,
		cancelBase:   cancel,
		coalesceDone: make(chan struct{}),
		searchFn:     sess.Search,
	}
	if cfg.CacheBytes > 0 {
		s.cache = qcache.New[[]engine.PSM](
			qcache.Config{MaxBytes: cfg.CacheBytes}, psmsSize)
		s.keyer = cacheKeyer(sess)
	}
	go s.coalesceLoop()
	return s
}

// Handler returns the service's HTTP routes: POST /search, GET /healthz,
// GET /stats, GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Shutdown drains the server gracefully: admission stops (new requests
// get 503), queued requests are flushed into batches, in-flight batches
// finish, and every accepted request receives its answer. If ctx expires
// first, in-flight searches are cancelled and Shutdown returns ctx's
// error after they unwind. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.quit)
	}

	done := make(chan struct{})
	go func() {
		<-s.coalesceDone
		s.batchWG.Wait()
		s.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelBase()
		<-done // searches watch baseCtx, so this unwinds promptly
		return ctx.Err()
	}
}

// Close force-drains the server: like Shutdown with an already-expired
// context, for tests and defer-style cleanup.
func (s *Server) Close() {
	s.cancelBase()
	// Deriving from the (just-cancelled) base keeps Close context-free;
	// expired is cancelled immediately anyway.
	expired, cancel := context.WithCancel(s.baseCtx)
	cancel()
	_ = s.Shutdown(expired)
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// bodyBuffers recycles the buffers /search bodies are read into and
// their replies rendered into.
var bodyBuffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers bodyBuffers keeps: one outsized
// request must not pin its body's memory in the pool.
const maxPooledBody = 64 << 10

// recycleBody returns buf to bodyBuffers unless it grew past
// maxPooledBody.
func recycleBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodyBuffers.Put(buf)
	}
}

// handleSearch decodes one search request, admits it through the bounded
// queue, and waits for its slice of a merged batch. The body is read
// into a pooled buffer, which the reply is then rendered into.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		api.WriteError(w, http.StatusMethodNotAllowed, "POST a SearchRequest JSON body")
		return
	}
	buf := bodyBuffers.Get().(*[]byte)
	defer recycleBody(buf)
	body, err := api.AppendBody((*buf)[:0], http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	*buf = body
	if err != nil {
		api.WriteBodyError(w, err)
		return
	}
	qs, err := api.DecodeSearchRequest(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(qs) == 0 {
		api.WriteError(w, http.StatusBadRequest, "request has no spectra")
		return
	}
	if len(qs) > s.cfg.MaxQueriesPerRequest {
		api.WriteError(w, http.StatusRequestEntityTooLarge,
			"%d spectra exceeds the per-request limit of %d", len(qs), s.cfg.MaxQueriesPerRequest)
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	psms, err := s.search(ctx, qs)
	switch {
	case err == nil:
		// The spectra hold no reference into the body, so its buffer
		// takes the reply.
		*buf = api.AppendSearchResponse(body[:0], api.BuildSearchResponse(qs, psms, s.peptides))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(*buf)
	case errors.Is(err, ErrDraining):
		api.WriteError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusTooManyRequests, "admission queue full, retry later")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Client gone or per-request deadline hit while queued/searching.
		api.WriteError(w, http.StatusGatewayTimeout, "request cancelled or deadline exceeded")
	default:
		api.WriteError(w, http.StatusInternalServerError, "search failed: %v", err)
	}
}

// shardSetJSON announces the session's shard-set slice on the wire, nil
// for a whole-store session (the one-set partition). TopK rides along so
// a scatter router can truncate its merged union to the session's
// reporting depth.
func (s *Server) shardSetJSON() *api.ShardSetJSON {
	info := s.sess.ShardSet()
	if info.Sets == 1 {
		return nil
	}
	return &api.ShardSetJSON{
		Set:         info.Set,
		Sets:        info.Sets,
		TotalShards: info.TotalShards,
		TopK:        s.sess.Config().TopK,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := api.HealthResponse{
		Status:   "ok",
		Shards:   s.sess.NumShards(),
		Groups:   s.sess.Groups(),
		Digest:   s.sess.Digest(),
		ShardSet: s.shardSetJSON(),
	}
	if s.isDraining() {
		h.Status = "draining"
		api.WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	api.WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics renders the /stats figures in the Prometheus text
// exposition format — same numbers, scrapable surface.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(api.FormatMetrics(&st))
}

// Stats snapshots the serving counters and session-lifetime load.
func (s *Server) Stats() api.StatsResponse {
	st := api.StatsResponse{
		Status:         "ok",
		Digest:         s.sess.Digest(),
		ShardSet:       s.shardSetJSON(),
		Shards:         s.sess.NumShards(),
		Groups:         s.sess.Groups(),
		IndexBytes:     s.sess.IndexBytes(),
		MappingBytes:   s.sess.MappingBytes(),
		Searched:       s.sess.Searched(),
		SessionBatches: s.sess.Batches(),
		Accepted:       s.accepted.Load(),
		RejectedQueue:  s.rejectedQueue.Load(),
		RejectedDrain:  s.rejectedDrain.Load(),
		Batches:        s.batches.Load(),
		BatchedQueries: s.batchedQueries.Load(),
		QueueLen:       len(s.queue),
		QueueDepth:     s.cfg.QueueDepth,
		InFlight:       len(s.sem),
		BatchSize:      s.cfg.BatchSize,
		FlushMicros:    s.cfg.FlushInterval.Microseconds(),
		MaxInFlight:    s.cfg.MaxInFlight,
	}
	if s.isDraining() {
		st.Status = "draining"
	}
	st.Cache = api.CacheStats(s.cache)
	for _, rs := range s.sess.Stats() {
		st.PrunedPostings += rs.Work.Pruned
		st.PerShard = append(st.PerShard, api.ShardStatsJSON{
			Rank:           rs.Rank,
			Peptides:       rs.Peptides,
			Rows:           rs.Rows,
			IndexBytes:     rs.IndexBytes,
			WorkUnits:      rs.Work.IonHits + rs.Work.Scored,
			PrunedPostings: rs.Work.Pruned,
			QueryMillis:    float64(rs.QueryNanos) / 1e6,
		})
	}
	ss := s.sess.SchedulerStats()
	st.Scheduler = api.SchedulerStatsJSON{
		ChunkSize: ss.ChunkSize,
		Batches:   ss.Batches,
		Chunks:    ss.Chunks,
		Steals:    ss.Steals,
		Stolen:    ss.Stolen,
	}
	for _, w := range ss.Workers {
		st.Scheduler.PerWorker = append(st.Scheduler.PerWorker, api.WorkerStatsJSON{
			Worker:         w.Worker,
			Chunks:         w.Chunks,
			Stolen:         w.Stolen,
			Steals:         w.Steals,
			WorkUnits:      w.Work.IonHits + w.Work.Scored,
			PrunedPostings: w.Work.Pruned,
			BusyMillis:     float64(w.Nanos) / 1e6,
		})
	}
	return st
}
