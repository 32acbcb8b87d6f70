package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"lbe/internal/core"
	"lbe/internal/sched"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// SessionConfig configures a Session: the engine knobs plus the number of
// in-process shards the database is partitioned into.
type SessionConfig struct {
	Config
	// Shards is the number of LBE partitions held in-process (the virtual
	// cluster size); 0 or negative means 1. Results are identical for
	// every shard count.
	Shards int
}

// DefaultSessionConfig returns a traffic-serving setup: the paper's cyclic
// policy, one shard, one search thread per available core (ThreadsPerRank
// 0), and 256-query batches. Its Schedule is also what a session
// opened from a store starts with.
func DefaultSessionConfig() SessionConfig {
	cfg := DefaultConfig()
	cfg.BatchSize = 256
	return SessionConfig{Config: cfg, Shards: 1}
}

// SchedulerStats is the session-lifetime view of the work-stealing
// execution layer: per-worker aggregates plus steal and chunk counters.
// The spread of Work across Workers is the intra-node balance figure the
// scheduler exists to flatten; Steals/Stolen say how much rebalancing it
// took to get there.
type SchedulerStats struct {
	Workers   []sched.WorkerStats // lifetime per-worker aggregates
	Batches   int64               // scheduled batches
	Chunks    int64               // chunks executed
	Steals    int64               // steal-half operations
	Stolen    int64               // chunks acquired by stealing
	ChunkSize int                 // the granularity the pool's Tuner picked for the last batch
}

// Session owns a built search engine: the LBE grouping, the policy
// partition, one SLM index per shard, and the master mapping table. It is
// constructed once with NewSession and then serves any number of query
// sets through Search without rebuilding anything.
//
// A Session is safe for concurrent use: multiple Searches may run at once
// over the same immutable indexes.
type Session struct {
	shape  Shape // fixed at construction; Digest covers it
	shards []*slm.Index
	table  core.MappingTable

	groups        int
	groupingNanos int64
	partitionNs   int64
	build         []RankStats  // per-shard construction stats (zero query load)
	shardSet      ShardSetInfo // the slice of the partition held; a whole store is set 0 of 1

	// viewStop and viewDone run the build of the shards' row views
	// (slm.Index.BuildRowView) in the background: started once the first
	// batch has been answered, cancelled and waited for by Close. Both are
	// guarded by mu.
	viewStop context.CancelFunc
	viewDone chan struct{}

	mu       sync.Mutex
	schedule Schedule    // this process's runtime knobs; see SetSchedule
	pool     *sched.Pool // query-time execution layer; swapped by SetSchedule
	digest   string      // store-consistency digest; see Digest
	closed   bool
	searched int64          // lifetime queries served
	batches  int64          // lifetime merged batches emitted
	load     []RankStats    // lifetime per-shard load (build + accumulated query work)
	sched    SchedulerStats // lifetime scheduler telemetry

	// idle holds finished batches' query buffers for the next batches to
	// reuse (see searchBatch): as many as batches ever ran at once.
	idle []*queryBuffers
}

// NewSession groups and partitions the peptide database under cfg and
// builds every shard's partial index (shards build concurrently, sharing
// cfg.BuildWorkers construction workers). The session is the one set of
// a cfg.Shards-way partition: SavePartitioned cuts it into the sets a
// slice holder serves.
func NewSession(peptides []string, scfg SessionConfig) (*Session, error) {
	cfg, p := scfg.Config, max(scfg.Shards, 1)
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("engine: session: %w", err)
	}
	prep, err := prepare(peptides, cfg, p)
	if err != nil {
		return nil, fmt.Errorf("engine: session: %w", err)
	}
	s := &Session{
		shape:         cfg.Shape,
		schedule:      cfg.Schedule,
		shardSet:      setOf(0, 1, p),
		shards:        make([]*slm.Index, p),
		groups:        prep.grouping.NumGroups(),
		groupingNanos: prep.groupNs,
		partitionNs:   prep.partNs,
		build:         make([]RankStats, p),
	}
	// Shards build concurrently, so split the construction worker budget
	// across them rather than multiplying it (the index is byte-identical
	// for any worker count).
	buildWorkers := divideBudget(cfg.BuildWorkers, p)

	var wg sync.WaitGroup
	errs := make([]error, p)
	for m := 0; m < p; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			local := prep.localPeptides(peptides, m)
			buildStart := time.Now()
			ix, err := slm.BuildWorkers(local, cfg.Params, buildWorkers)
			if err != nil {
				errs[m] = fmt.Errorf("engine: session shard %d build: %w", m, err)
				return
			}
			s.shards[m] = ix
			s.build[m] = rankStats(m, len(local), ix, time.Since(buildStart).Nanoseconds())
		}(m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.load = append([]RankStats(nil), s.build...)
	s.pool = newPool(s.schedule, s.shape.TopK)
	s.table = core.BuildMappingTable(prep.grouping, prep.partition)
	if s.digest, err = canonicalDigest(peptides, cfg.Shape, p); err != nil {
		return nil, fmt.Errorf("engine: session: %w", err)
	}
	return s, nil
}

// setOf names shard-set `set` of `sets` over a p-way partition: the
// contiguous shards [set·p/sets, (set+1)·p/sets), at least one when
// sets <= p. NewSession and SavePartitioned share this one layout.
func setOf(set, sets, p int) ShardSetInfo {
	lo, hi := set*p/sets, (set+1)*p/sets
	ids := make([]int, hi-lo)
	for i := range ids {
		ids[i] = lo + i
	}
	return ShardSetInfo{Set: set, Sets: sets, TotalShards: p, ShardIDs: ids}
}

// lbePrep is the deterministic serial LBE preprocessing of the database:
// Algorithm 1 grouping plus the policy partition.
type lbePrep struct {
	grouping  core.Grouping
	partition core.Partition
	groupNs   int64
	partNs    int64
}

// prepare runs grouping and partitioning of the peptide database over p
// machines under cfg.
func prepare(peptides []string, cfg Config, p int) (lbePrep, error) {
	var out lbePrep
	groupStart := time.Now()
	if cfg.RawOrder {
		out.grouping = core.IdentityGrouping(len(peptides))
	} else {
		var err error
		out.grouping, err = core.Group(peptides, cfg.Group)
		if err != nil {
			return out, fmt.Errorf("engine: grouping: %w", err)
		}
	}
	out.groupNs = time.Since(groupStart).Nanoseconds()

	partStart := time.Now()
	var err error
	if len(cfg.Weights) > 0 {
		if len(cfg.Weights) != p {
			return out, fmt.Errorf("engine: %d weights for %d shards", len(cfg.Weights), p)
		}
		out.partition, err = core.PartitionWeighted(out.grouping, cfg.Weights, cfg.Policy, cfg.Seed)
	} else {
		out.partition, err = core.PartitionClustered(out.grouping, p, cfg.Policy, cfg.Seed)
	}
	if err != nil {
		return out, fmt.Errorf("engine: partition: %w", err)
	}
	out.partNs = time.Since(partStart).Nanoseconds()
	return out, nil
}

// localPeptides extracts machine m's partition of the peptide list.
func (pr lbePrep) localPeptides(peptides []string, m int) []string {
	mine := pr.partition.GlobalIndices(pr.grouping, m)
	local := make([]string, len(mine))
	for i, gidx := range mine {
		local[i] = peptides[gidx]
	}
	return local
}

// rankStats is a shard's accounting before any query: its identity and
// sizes, which an open recomputes from the index and the mapping table,
// and the build cost only the process that built it knows (zero at open).
func rankStats(rank, peptides int, ix *slm.Index, buildNanos int64) RankStats {
	return RankStats{
		Rank:           rank,
		Peptides:       peptides,
		Rows:           ix.NumRows(),
		IndexBytes:     ix.MemoryBytes(),
		BuildPeakBytes: ix.BuildPeakBytes(),
		BuildNanos:     buildNanos,
	}
}

// canonicalDigest fingerprints a freshly built session: a hash over what
// the store manifest records of the configuration (the Shape and the
// shard count; no Schedule) and the full peptide list. Two replicas that
// build from the same database with the same shape flags agree; replicas
// warm-started from a store agree through the manifest hash instead (see
// OpenSession). The router's consistency gate compares these digests
// before mixing replicas.
func canonicalDigest(peptides []string, shape Shape, shards int) (string, error) {
	doc, err := json.Marshal(storeConfig{Shape: shape, Shards: shards})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(doc)
	h.Write([]byte{0})
	for _, p := range peptides {
		io.WriteString(h, p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Digest returns the session's store-consistency digest: a stable
// fingerprint of the searched database and its result-shaping
// configuration. Sessions opened from the same store (or saved to one)
// share the store manifest's hash; freshly built sessions share a
// canonical hash of their shape config and peptide list. lbe-serve
// exposes it on /healthz and /stats, and lbe-router refuses to route
// across replicas whose digests differ.
func (s *Session) Digest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.digest
}

// NumShards returns the number of in-process partitions.
func (s *Session) NumShards() int { return len(s.build) }

// MappedShards returns how many of the session's shard indexes are
// backed by zero-copy memory mappings (see OpenOptions.MapStore): 0 for
// freshly built or heap-loaded sessions, NumShards for a fully mapped
// store open, in between when some shards fell back.
func (s *Session) MappedShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ix := range s.shards {
		if ix.Mapped() {
			n++
		}
	}
	return n
}

// ShardSetInfo identifies the slice of a partitioned store a session
// holds: which shard-set it is, the cluster shape, and the global id of
// each local shard (see Session.SavePartitioned). A whole store is the
// one-set partition: set 0 of 1 holding shards 0..P-1. It is the
// manifest's shard_set block as written.
type ShardSetInfo struct {
	Set         int   `json:"set"`          // this set's index in [0, Sets)
	Sets        int   `json:"sets"`         // shard-sets the cluster was partitioned into
	TotalShards int   `json:"total_shards"` // shards across the whole cluster
	ShardIDs    []int `json:"shard_ids"`    // global shard id of each local shard, in local order
}

// ShardSet returns the shard-set slice this session holds. Merged PSMs
// carry ShardIDs[m] as the Origin of local shard m, so a slice session
// reports the same shard identities the whole-store session would. The
// returned struct is a copy.
func (s *Session) ShardSet() ShardSetInfo {
	out := s.shardSet
	out.ShardIDs = append([]int(nil), s.shardSet.ShardIDs...)
	return out
}

// Groups returns the number of LBE groups formed over the database.
func (s *Session) Groups() int { return s.groups }

// MappingBytes returns the master mapping table footprint.
func (s *Session) MappingBytes() int { return s.table.MemoryBytes() }

// IndexBytes returns the total resident size of the shard indexes.
func (s *Session) IndexBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ix := range s.shards {
		n += ix.MemoryBytes()
	}
	return n
}

// Searched returns the lifetime number of queries this session served.
func (s *Session) Searched() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.searched
}

// Batches returns the lifetime number of batches the session searched and
// merged across every Search. A serving layer that
// coalesces requests can read it to verify how much batching it achieved.
func (s *Session) Batches() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches
}

// Config returns the Shape the session was built with beside the
// Schedule it currently runs under.
func (s *Session) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Config{Shape: s.shape, Schedule: s.schedule}
}

// SetSchedule replaces the session's runtime knobs, whole value in: every
// field means what it means on a fresh build (zeros included), and
// nothing is kept from the previous schedule. Results are invariant to
// it. A Search in flight finishes on the pool it snapshotted; BuildWorkers
// has nothing left to build.
func (s *Session) SetSchedule(sc Schedule) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.schedule = sc
	s.pool = newPool(sc, s.shape.TopK)
}

// Stats returns the lifetime per-shard load: construction stats plus the
// query work accumulated over every Search so far.
func (s *Session) Stats() []RankStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RankStats(nil), s.load...)
}

// SchedulerStats returns the lifetime scheduler telemetry: per-worker
// work/wall-time aggregates plus steal and chunk counters across every
// Search the session served.
func (s *Session) SchedulerStats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.sched
	out.Workers = append([]sched.WorkerStats(nil), s.sched.Workers...)
	return out
}

// Close releases the shard indexes. Searches started later fail; searches
// in flight keep their index references and finish normally. For a mapped
// session this only drops the references — the underlying file mappings
// are released when the last index reference is collected (never eagerly,
// since a search in flight may still be reading them).
//
// Close also cancels the background build of the shards' row views and
// waits for it to stop.
func (s *Session) Close() {
	s.mu.Lock()
	s.closed = true
	s.shards = nil
	stop, done := s.viewStop, s.viewDone
	s.mu.Unlock()
	if stop != nil {
		stop()
		<-done
	}
}

// startRowViews starts, at most once per session and never after Close,
// one goroutine that builds the row view of every shard that needs one
// (slm.Index.BuildRowView), one shard after another. Until a shard's view
// is published its windowed searches take the per-bucket walk; the
// answers are the same either way, so nothing waits for it. An
// open-tolerance session needs no view and starts nothing.
func (s *Session) startRowViews() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.viewDone != nil {
		return
	}
	s.viewDone = make(chan struct{})
	var todo []*slm.Index
	for _, ix := range s.shards {
		if ix.NeedsRowView() {
			todo = append(todo, ix)
		}
	}
	if len(todo) == 0 {
		close(s.viewDone)
		return
	}
	//lbe:ignore ctxflow the row views live as long as the session; Close cancels this root and waits for the build to stop
	ctx, stop := context.WithCancel(context.Background())
	s.viewStop = stop
	go func(done chan struct{}) {
		defer close(done)
		for _, ix := range todo {
			if ix.BuildRowView(ctx) != nil {
				return
			}
		}
	}(s.viewDone)
}

// record accumulates one merged batch into the lifetime load accounting:
// per-shard work/time plus the scheduler's per-worker telemetry.
func (s *Session) record(nq int, sr *sched.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.searched += int64(nq)
	s.batches++
	for m := range sr.Shards {
		s.load[m].Work.Add(sr.Shards[m].Work)
		s.load[m].QueryNanos += sr.Shards[m].Nanos
	}
	s.sched.Batches++
	s.sched.ChunkSize = sr.ChunkSize
	for len(s.sched.Workers) < len(sr.Workers) {
		s.sched.Workers = append(s.sched.Workers, sched.WorkerStats{Worker: len(s.sched.Workers)})
	}
	for t, w := range sr.Workers {
		s.sched.Workers[t].Add(w)
		s.sched.Chunks += int64(w.Chunks)
		s.sched.Steals += int64(w.Steals)
		s.sched.Stolen += int64(w.Stolen)
	}
}

// BatchResult is one searched and merged batch of a query set: what
// searchBatch returns and each hands to its emit.
type BatchResult struct {
	Offset int     // index in the query set of the batch's first query
	PSMs   [][]PSM // per query in the batch, best-first, TopK applied

	// ShardWork and ShardNanos give the deterministic work and search
	// wall time each shard spent on this batch.
	ShardWork  []slm.Work
	ShardNanos []int64
}

// queryBuffers is one batch's prepared queries and the peak buffer each
// spectrum is preprocessed into on its way to them. A session keeps the
// buffers of finished batches (Session.idle), so a warm batch prepares its
// queries without allocating.
type queryBuffers struct {
	peaks   []spectrum.Peak
	queries []slm.Query
}

// prepare runs the paper's query preprocessing (top-N peaks, base-peak
// normalization) on each of qs and resolves the result under params into
// a query every shard can search (slm.Query): once per query, not once
// per (shard, query) cell. Every shard of a session was built under, or
// checked at open to hold, the session's Params. The returned slice is
// b's and valid until b prepares again.
func (b *queryBuffers) prepare(qs []spectrum.Experimental, params slm.Params) []slm.Query {
	if cap(b.queries) < len(qs) {
		// Keep the queries already grown: their span buffers are warm.
		b.queries = slices.Grow(b.queries[:cap(b.queries)], len(qs)-cap(b.queries))
	}
	b.queries = b.queries[:len(qs)]
	for i, e := range qs {
		e = spectrum.PreprocessInto(b.peaks, e, params.MaxQueryPeaks)
		b.peaks = e.Peaks
		b.queries[i].Prepare(e, params)
	}
	return b.queries
}

// searchBatch is the engine's whole data path, run on the caller's
// goroutine: each query's preparation, once (queryBuffers.prepare), the
// search of every (shard, query-chunk) task on the scheduler pool, and
// the merge of the cells the workers kept (each already cut to what can
// reach the best TopK, see newPool). Results are invariant to the
// schedule; only the telemetry records who did what. shards and pool are
// the caller's snapshot (see each); offset is the batch's position in the
// query set.
func (s *Session) searchBatch(ctx context.Context, shards []*slm.Index, pool *sched.Pool, offset int, qs []spectrum.Experimental) (BatchResult, error) {
	s.mu.Lock()
	b := &queryBuffers{}
	if n := len(s.idle); n > 0 {
		b, s.idle = s.idle[n-1], s.idle[:n-1]
	}
	s.mu.Unlock()
	sr, err := pool.Run(ctx, shards, b.prepare(qs, s.shape.Params))
	s.mu.Lock()
	s.idle = append(s.idle, b)
	s.mu.Unlock()
	if err != nil {
		return BatchResult{}, err
	}
	psms, err := s.merge(sr.Matches, len(qs))
	if err != nil {
		return BatchResult{}, err
	}
	br := BatchResult{
		Offset:     offset,
		PSMs:       psms,
		ShardWork:  make([]slm.Work, len(sr.Shards)),
		ShardNanos: make([]int64, len(sr.Shards)),
	}
	s.record(len(qs), sr)
	for m, sh := range sr.Shards {
		br.ShardWork[m] = sh.Work
		br.ShardNanos[m] = sh.Nanos
	}
	return br, nil
}

// merge is searchBatch's last step over the scheduler's cells, cells[m][q]
// holding shard m's kept matches for query q: every match is mapped to
// its global peptide through the mapping table, and each query's union is
// sorted by ComparePSM and cut to TopK. The order of matches within a
// cell is the order the index's rows reach the shared-peak threshold,
// which the band layout decides; ComparePSM makes the result independent
// of it.
func (s *Session) merge(cells [][][]slm.Match, nq int) ([][]PSM, error) {
	out := make([][]PSM, nq)
	for q := range out {
		n := 0
		for m := range cells {
			n += len(cells[m][q])
		}
		var merged []PSM // stays nil for a query nothing matched
		if n > 0 {
			merged = make([]PSM, 0, n)
		}
		for m := range cells {
			for _, match := range cells[m][q] {
				gidx, err := s.table.Lookup(m, match.Peptide)
				if err != nil {
					return nil, fmt.Errorf("engine: mapping shard %d: %w", m, err)
				}
				merged = append(merged, PSM{
					Peptide:   gidx,
					Shared:    match.Shared,
					Score:     match.Score,
					Precursor: match.Precursor,
					Origin:    s.shardSet.ShardIDs[m],
				})
			}
		}
		sortPSMs(merged)
		if s.shape.TopK > 0 && len(merged) > s.shape.TopK {
			merged = merged[:s.shape.TopK]
		}
		out[q] = merged
	}
	return out, nil
}

// each answers one query set: it searches queries in Schedule.BatchSize
// slices, in order, and hands every merged batch to emit before searching
// the next. It stops at the first error — searchBatch's or emit's — and
// returns it. The shards, the pool and the batch size are snapshotted once
// up front, so Close and SetSchedule cannot race a run in flight.
//
// Once the first batch has been answered, the background build of the
// shards' row views starts (see startRowViews), so it never delays a
// first answer.
func (s *Session) each(ctx context.Context, queries []spectrum.Experimental, emit func(BatchResult) error) error {
	s.mu.Lock()
	closed, shards, pool := s.closed, s.shards, s.pool
	size := s.schedule.effectiveBatch(len(queries))
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("engine: session is closed")
	}
	for off := 0; off < len(queries); off += size {
		br, err := s.searchBatch(ctx, shards, pool, off, queries[off:min(off+size, len(queries))])
		if err != nil {
			return err
		}
		if err := emit(br); err != nil {
			return err
		}
		if off == 0 {
			s.startRowViews()
		}
	}
	return nil
}

// Search answers one whole query set and assembles the master Result,
// exactly equal to RunSerial's reference output (up to PSM Origin, which
// records the owning shard). The session's indexes are reused as-is;
// nothing is rebuilt.
func (s *Session) Search(ctx context.Context, queries []spectrum.Experimental) (*Result, error) {
	start := time.Now()
	res := &Result{
		PSMs:           make([][]PSM, len(queries)),
		Stats:          append([]RankStats(nil), s.build...),
		MappingBytes:   s.table.MemoryBytes(),
		GroupingNanos:  s.groupingNanos,
		PartitionNanos: s.partitionNs,
		Groups:         s.groups,
	}
	err := s.each(ctx, queries, func(br BatchResult) error {
		copy(res.PSMs[br.Offset:], br.PSMs)
		for m := range br.ShardWork {
			res.Stats[m].Work.Add(br.ShardWork[m])
			res.Stats[m].QueryNanos += br.ShardNanos[m]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.QueryNanos = time.Since(start).Nanoseconds()
	res.TotalNanos = time.Since(start).Nanoseconds()
	return res, nil
}
