// Package api is the single home of the LBE serving tier's JSON wire
// contract — the request/response types spoken on /search, /healthz and
// /stats by lbe-serve, routed unchanged by lbe-router, and consumed by
// lbe-client — plus a typed HTTP client over that contract. Before this
// package the types lived in internal/server and were re-declared inline
// by every consumer; now server, router, client, bench and tests all
// import one definition, so the wire format cannot drift between them.
//
// The /search path runs through a reflection-free codec:
// DecodeSearchRequest turns a request body into sorted, validated
// spectra in one pass (lbe-serve searches them, lbe-router keys its
// cache on them), and AppendSearchResponse renders a reply into a
// caller's buffer (lbe-serve's answers, lbe-router's merges). Both are
// held to encoding/json — the same bodies accepted, the same values,
// the same reply bytes — by FuzzDecodeSearchRequest and
// FuzzAppendSearchResponse.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"lbe/internal/engine"
	"lbe/internal/qcache"
	"lbe/internal/spectrum"
)

// SearchRequest is the JSON body of POST /search: one or more query
// spectra searched as a unit. Single-spectrum requests are the expected
// serving shape; the server's coalescer merges concurrent ones into
// larger engine batches.
type SearchRequest struct {
	Spectra []SpectrumJSON `json:"spectra"`
}

// SpectrumJSON is one query spectrum on the wire. Peaks are [m/z,
// intensity] pairs and need not be sorted; the server sorts them.
type SpectrumJSON struct {
	Scan          int          `json:"scan,omitempty"`
	PrecursorMZ   float64      `json:"precursor_mz"`
	Charge        int          `json:"charge,omitempty"`
	RetentionTime float64      `json:"retention_time,omitempty"`
	Peaks         [][2]float64 `json:"peaks"`
}

// FromExperimental converts an engine query spectrum to its wire form.
func FromExperimental(e spectrum.Experimental) SpectrumJSON {
	sj := SpectrumJSON{
		Scan:          e.Scan,
		PrecursorMZ:   e.PrecursorMZ,
		Charge:        e.Charge,
		RetentionTime: e.RetentionTime,
		Peaks:         make([][2]float64, len(e.Peaks)),
	}
	for i, p := range e.Peaks {
		sj.Peaks[i] = [2]float64{p.MZ, p.Intensity}
	}
	return sj
}

// Experimental converts the wire spectrum to the engine's query type,
// sorting the peaks and validating the result.
func (sj SpectrumJSON) Experimental() (spectrum.Experimental, error) {
	e := spectrum.Experimental{
		Scan:          sj.Scan,
		PrecursorMZ:   sj.PrecursorMZ,
		Charge:        sj.Charge,
		RetentionTime: sj.RetentionTime,
		Peaks:         make([]spectrum.Peak, len(sj.Peaks)),
	}
	for i, p := range sj.Peaks {
		e.Peaks[i] = spectrum.Peak{MZ: p[0], Intensity: p[1]}
	}
	e.SortPeaks()
	if err := e.Validate(); err != nil {
		return e, err
	}
	return e, nil
}

// SearchResponse is the JSON body of a successful /search: one entry per
// request spectrum, in request order.
type SearchResponse struct {
	Results []QueryResult `json:"results"`
}

// QueryResult holds one query's matches, best-first, TopK applied.
type QueryResult struct {
	Scan int       `json:"scan"`
	PSMs []PSMJSON `json:"psms"`
}

// PSMJSON is one peptide-to-spectrum match on the wire.
type PSMJSON struct {
	Peptide   uint32  `json:"peptide"`
	Sequence  string  `json:"sequence,omitempty"`
	Score     float64 `json:"score"`
	Shared    uint16  `json:"shared"`
	Precursor float64 `json:"precursor"`
	Shard     int     `json:"shard"`
}

// BuildSearchResponse assembles the wire response for one slice of
// engine results: qs[i] answered by psms[i]. peptides may be nil, in
// which case matched sequences are omitted. The server renders every
// /search reply through this function, so a test that needs the exact
// bytes a server would send for a direct Session.Search result can
// marshal this instead of re-deriving the mapping.
func BuildSearchResponse(qs []spectrum.Experimental, psms [][]engine.PSM, peptides []string) SearchResponse {
	out := SearchResponse{Results: make([]QueryResult, len(qs))}
	for q := range qs {
		qr := QueryResult{Scan: qs[q].Scan, PSMs: make([]PSMJSON, len(psms[q]))}
		for i, p := range psms[q] {
			pj := PSMJSON{
				Peptide:   p.Peptide,
				Score:     p.Score,
				Shared:    p.Shared,
				Precursor: p.Precursor,
				Shard:     p.Origin,
			}
			if int(p.Peptide) < len(peptides) {
				pj.Sequence = peptides[p.Peptide]
			}
			qr.PSMs[i] = pj
		}
		out.Results[q] = qr
	}
	return out
}

// ShardSetJSON announces on /healthz and /stats which slice of a
// partitioned store a replica holds (engine.Session.ShardSet). The
// router discovers the cluster topology entirely from these
// announcements: no static topology file exists, and a replica that
// announces none is read as {set 0 of 1} — a whole store is the one-set
// partition. TopK rides along because the front-end merge must truncate
// the per-set union to the same depth a whole-store session would.
type ShardSetJSON struct {
	Set         int `json:"set"`
	Sets        int `json:"sets"`
	TotalShards int `json:"total_shards"`
	TopK        int `json:"topk"`
}

// HealthResponse is the JSON body of /healthz. Digest is the serving
// session's store-consistency digest (engine.Session.Digest): replicas
// answering with different digests are serving different databases, and
// the router's consistency gate refuses to mix them. ShardSet is present
// when the replica serves one shard-set of a partitioned store.
type HealthResponse struct {
	Status   string        `json:"status"`
	Shards   int           `json:"shards"`
	Groups   int           `json:"groups"`
	Digest   string        `json:"digest,omitempty"`
	ShardSet *ShardSetJSON `json:"shard_set,omitempty"`
}

// ShardStatsJSON is one shard's lifetime load in /stats.
// PrunedPostings counts postings the precursor-windowed kernel skipped —
// work the full scan would have paid; it is not part of work_units, which
// stay the deterministic balance figure.
type ShardStatsJSON struct {
	Rank           int     `json:"rank"`
	Peptides       int     `json:"peptides"`
	Rows           int     `json:"rows"`
	IndexBytes     int     `json:"index_bytes"`
	WorkUnits      int64   `json:"work_units"`
	PrunedPostings int64   `json:"pruned_postings"`
	QueryMillis    float64 `json:"query_ms"`
}

// WorkerStatsJSON is one scheduler worker's lifetime share in /stats.
// The spread of work_units across workers is the intra-node balance the
// work-stealing execution layer exists to flatten.
type WorkerStatsJSON struct {
	Worker         int     `json:"worker"`
	Chunks         int     `json:"chunks"`
	Stolen         int     `json:"chunks_stolen"`
	Steals         int     `json:"steals"`
	WorkUnits      int64   `json:"work_units"`
	PrunedPostings int64   `json:"pruned_postings"`
	BusyMillis     float64 `json:"busy_ms"`
}

// SchedulerStatsJSON summarizes a session's work-stealing execution
// layer in /stats.
type SchedulerStatsJSON struct {
	ChunkSize int               `json:"chunk_size"`
	Batches   int64             `json:"batches"`
	Chunks    int64             `json:"chunks"`
	Steals    int64             `json:"steals"`
	Stolen    int64             `json:"chunks_stolen"`
	PerWorker []WorkerStatsJSON `json:"per_worker"`
}

// CacheStatsJSON is the answer cache's counter block in /stats, present
// on both tiers when caching is enabled. ResidentBytes/CapacityBytes are
// gauges; the rest are lifetime counters.
type CacheStatsJSON struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Collapsed     int64 `json:"singleflight_collapsed"`
	Invalidated   int64 `json:"invalidated"`
	Entries       int   `json:"entries"`
	ResidentBytes int64 `json:"resident_bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
}

// Add accumulates o into c, for aggregating replica caches at the router.
// Gauges sum too: the aggregate reports cluster-wide residency/capacity.
func (c *CacheStatsJSON) Add(o CacheStatsJSON) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Evictions += o.Evictions
	c.Collapsed += o.Collapsed
	c.Invalidated += o.Invalidated
	c.Entries += o.Entries
	c.ResidentBytes += o.ResidentBytes
	c.CapacityBytes += o.CapacityBytes
}

// CacheStats snapshots c's counters as the /stats cache block, or nil
// when c is nil (caching disabled): the one conversion both tiers use.
func CacheStats[V any](c *qcache.Cache[V]) *CacheStatsJSON {
	if c == nil {
		return nil
	}
	cs := c.Stats()
	return &CacheStatsJSON{
		Hits:          cs.Hits,
		Misses:        cs.Misses,
		Evictions:     cs.Evictions,
		Collapsed:     cs.Collapsed,
		Invalidated:   cs.Invalidated,
		Entries:       cs.Entries,
		ResidentBytes: cs.Bytes,
		CapacityBytes: cs.MaxBytes,
	}
}

// StatsResponse is the JSON body of /stats on lbe-serve: session-lifetime
// engine figures plus the server's admission and coalescing counters.
// QueueLen and InFlight are the live load figures a router's least-loaded
// dispatch reads.
type StatsResponse struct {
	Status         string             `json:"status"`
	Digest         string             `json:"digest,omitempty"`
	ShardSet       *ShardSetJSON      `json:"shard_set,omitempty"`
	Shards         int                `json:"shards"`
	Groups         int                `json:"groups"`
	IndexBytes     int                `json:"index_bytes"`
	MappingBytes   int                `json:"mapping_bytes"`
	Searched       int64              `json:"searched"`
	PrunedPostings int64              `json:"pruned_postings"`
	SessionBatches int64              `json:"session_batches"`
	Accepted       int64              `json:"requests_accepted"`
	RejectedQueue  int64              `json:"requests_rejected_queue_full"`
	RejectedDrain  int64              `json:"requests_rejected_draining"`
	Batches        int64              `json:"coalesced_batches"`
	BatchedQueries int64              `json:"coalesced_queries"`
	QueueLen       int                `json:"queue_len"`
	QueueDepth     int                `json:"queue_depth"`
	InFlight       int                `json:"in_flight"`
	BatchSize      int                `json:"batch_size"`
	FlushMicros    int64              `json:"flush_interval_us"`
	MaxInFlight    int                `json:"max_in_flight"`
	PerShard       []ShardStatsJSON   `json:"per_shard"`
	Scheduler      SchedulerStatsJSON `json:"scheduler"`
	Cache          *CacheStatsJSON    `json:"cache,omitempty"`
}

// Add accumulates a replica's snapshot o into s, the router's aggregate:
// every counter and gauge sums, the scheduler's chunk size is o's (the
// last replica added wins), and o's cache block, if any, adds into s's.
// Identity and configuration (Status, Digest, ShardSet, Shards, Groups,
// BatchSize, FlushMicros) and the per-shard and per-worker detail are
// not summed: they stay on the replicas.
func (s *StatsResponse) Add(o StatsResponse) {
	s.IndexBytes += o.IndexBytes
	s.MappingBytes += o.MappingBytes
	s.Searched += o.Searched
	s.PrunedPostings += o.PrunedPostings
	s.SessionBatches += o.SessionBatches
	s.Accepted += o.Accepted
	s.RejectedQueue += o.RejectedQueue
	s.RejectedDrain += o.RejectedDrain
	s.Batches += o.Batches
	s.BatchedQueries += o.BatchedQueries
	s.QueueLen += o.QueueLen
	s.QueueDepth += o.QueueDepth
	s.InFlight += o.InFlight
	s.MaxInFlight += o.MaxInFlight
	s.Scheduler.ChunkSize = o.Scheduler.ChunkSize
	s.Scheduler.Batches += o.Scheduler.Batches
	s.Scheduler.Chunks += o.Scheduler.Chunks
	s.Scheduler.Steals += o.Scheduler.Steals
	s.Scheduler.Stolen += o.Scheduler.Stolen
	if o.Cache != nil {
		if s.Cache == nil {
			s.Cache = &CacheStatsJSON{}
		}
		s.Cache.Add(*o.Cache)
	}
}

// RouterReplicaJSON is one replica's view in the router's /stats.
type RouterReplicaJSON struct {
	URL            string        `json:"url"`
	Healthy        bool          `json:"healthy"`
	DigestMismatch bool          `json:"digest_mismatch,omitempty"`
	Digest         string        `json:"digest,omitempty"`
	ShardSet       *ShardSetJSON `json:"shard_set,omitempty"`
	QueueLen       int           `json:"queue_len"`
	InFlight       int           `json:"in_flight"`
	RouterInFlight int64         `json:"router_in_flight"`
	Routed         int64         `json:"routed"`
	Failed         int64         `json:"failed"`
	ProbeAgeMillis int64         `json:"probe_age_ms"` // -1 before the first successful probe
	StatsAgeMillis int64         `json:"stats_age_ms"` // -1 before the first stats snapshot
	// What crossed the router→replica hop: /search request body bytes
	// sent (every attempt) and reply body bytes read back (any status).
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
	// Connections the router opened to the replica, probes included. The
	// router keeps them alive, so this stays near the most requests it
	// ever had outstanding there; one per request means every round paid
	// a handshake.
	Dials int64 `json:"connections_dialed"`
}

// RouterScatterJSON is the topology block of the router's /stats,
// present whenever a replica is healthy (sets is 1 over whole stores):
// the discovered cluster shape, how many shard-sets currently have a
// consistent healthy holder, the per-set digests the cluster digest
// composes from, and the requests rejected because a shard-set had no
// holder (the explicit partial-failure path — never silent truncation).
type RouterScatterJSON struct {
	Sets            int      `json:"sets"`
	TotalShards     int      `json:"total_shards"`
	Covered         int      `json:"sets_covered"`
	SetDigests      []string `json:"set_digests,omitempty"`
	RejectedSetDown int64    `json:"requests_rejected_shard_set_down"`
}

// RouterStatsResponse is the JSON body of /stats on lbe-router: the
// routing counters, the per-replica registry, and an aggregate of the
// replicas' own StatsResponses (scalar counters summed over the replicas
// with a stats snapshot; per-shard and per-worker detail stays on the
// replicas).
type RouterStatsResponse struct {
	Status            string              `json:"status"`
	Digest            string              `json:"digest,omitempty"`
	Routed            int64               `json:"requests_routed"`
	Failovers         int64               `json:"failovers"`
	RejectedDrain     int64               `json:"requests_rejected_draining"`
	RejectedNoReplica int64               `json:"requests_rejected_no_replica"`
	Scatter           *RouterScatterJSON  `json:"scatter,omitempty"`
	Replicas          []RouterReplicaJSON `json:"replicas"`
	Cache             *CacheStatsJSON     `json:"cache,omitempty"`
	Aggregate         StatsResponse       `json:"aggregate"`
	// The per-replica hop byte counters, summed over Replicas.
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
}

// ErrorResponse is the JSON body of every non-200 reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON renders v as the response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// The response was fully assembled from plain data, so encoding can
	// only fail on a dead connection; nothing useful to do then.
	_ = enc.Encode(v)
}

// WriteError renders an ErrorResponse with the given status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// WriteBodyError answers a request whose body could not be read: 413
// when it ran past the limit of its http.MaxBytesReader, 400 otherwise.
func WriteBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the limit of %d bytes", tooLarge.Limit)
		return
	}
	WriteError(w, http.StatusBadRequest, "reading request body: %v", err)
}
