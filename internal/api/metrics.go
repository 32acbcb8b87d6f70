package api

import (
	"bytes"
	"fmt"
)

// Prometheus text exposition (version 0.0.4), hand-rolled so the serving
// tier's telemetry — the ROADMAP's "Prometheus-format /metrics from the
// existing SchedulerStats + shard stats" item — costs no dependency. The
// gauges and counters below are a direct rendering of StatsResponse:
// lbe-serve exposes its own, and lbe-router exposes the aggregate it
// already keeps for /stats plus its routing counters.

// metricsWriter accumulates one exposition document, emitting each
// metric's HELP/TYPE header once.
type metricsWriter struct {
	buf bytes.Buffer
}

func (m *metricsWriter) header(name, help, typ string) {
	fmt.Fprintf(&m.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *metricsWriter) value(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&m.buf, "%s%s %g\n", name, labels, v)
}

func (m *metricsWriter) simple(name, help, typ string, v float64) {
	m.header(name, help, typ)
	m.value(name, "", v)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// appendStats renders one StatsResponse under the lbe_ metric names.
func (m *metricsWriter) appendStats(st *StatsResponse) {
	m.simple("lbe_draining", "Whether the service is draining (1) or serving (0).", "gauge", b2f(st.Status != "ok"))
	if st.Digest != "" {
		m.header("lbe_index_info", "Store identity: the consistency digest replicas must agree on (always 1).", "gauge")
		m.value("lbe_index_info", fmt.Sprintf(`digest=%q`, st.Digest), 1)
	}
	if ss := st.ShardSet; ss != nil {
		m.simple("lbe_shard_set", "Shard-set ordinal this replica holds (partitioned stores).", "gauge", float64(ss.Set))
		m.simple("lbe_shard_sets", "Shard-set count in the replica's partition topology.", "gauge", float64(ss.Sets))
		m.simple("lbe_shard_set_total_shards", "Total shards across the replica's partition topology.", "gauge", float64(ss.TotalShards))
		m.simple("lbe_shard_set_topk", "Per-set result depth the scatter merge truncates to.", "gauge", float64(ss.TopK))
	}
	m.simple("lbe_shards", "Index shards held by the session(s).", "gauge", float64(st.Shards))
	m.simple("lbe_groups", "LBE peptide groups formed over the database.", "gauge", float64(st.Groups))
	m.simple("lbe_index_bytes", "Resident shard-index bytes.", "gauge", float64(st.IndexBytes))
	m.simple("lbe_mapping_bytes", "Master mapping table bytes.", "gauge", float64(st.MappingBytes))
	m.simple("lbe_queries_searched_total", "Queries served over the session lifetime.", "counter", float64(st.Searched))
	m.simple("lbe_pruned_postings_total", "Postings outside the precursor window, skipped unvisited.", "counter", float64(st.PrunedPostings))
	m.simple("lbe_session_batches_total", "Merged pipeline batches the engine executed.", "counter", float64(st.SessionBatches))
	m.simple("lbe_requests_accepted_total", "Requests admitted through the bounded queue.", "counter", float64(st.Accepted))

	m.header("lbe_requests_rejected_total", "Requests rejected, by reason.", "counter")
	m.value("lbe_requests_rejected_total", `reason="queue_full"`, float64(st.RejectedQueue))
	m.value("lbe_requests_rejected_total", `reason="draining"`, float64(st.RejectedDrain))

	m.simple("lbe_coalesced_batches_total", "Merged batches dispatched by the coalescer.", "counter", float64(st.Batches))
	m.simple("lbe_coalesced_queries_total", "Queries carried by coalesced batches.", "counter", float64(st.BatchedQueries))
	m.simple("lbe_queue_len", "Requests waiting on the admission queue.", "gauge", float64(st.QueueLen))
	m.simple("lbe_queue_depth", "Admission queue capacity.", "gauge", float64(st.QueueDepth))
	m.simple("lbe_inflight_batches", "Coalesced batches currently searching.", "gauge", float64(st.InFlight))
	m.simple("lbe_max_inflight_batches", "In-flight batch slot capacity.", "gauge", float64(st.MaxInFlight))
	m.simple("lbe_coalesce_batch_size", "Coalescer flush threshold (queries per batch).", "gauge", float64(st.BatchSize))
	m.simple("lbe_coalesce_flush_interval_us", "Coalescer flush interval in microseconds.", "gauge", float64(st.FlushMicros))

	if len(st.PerShard) > 0 {
		m.header("lbe_shard_peptides", "Database peptides indexed by the shard.", "gauge")
		for _, sh := range st.PerShard {
			m.value("lbe_shard_peptides", fmt.Sprintf(`shard="%d"`, sh.Rank), float64(sh.Peptides))
		}
		m.header("lbe_shard_rows", "Index rows (peptide variants) held by the shard.", "gauge")
		for _, sh := range st.PerShard {
			m.value("lbe_shard_rows", fmt.Sprintf(`shard="%d"`, sh.Rank), float64(sh.Rows))
		}
		m.header("lbe_shard_index_bytes", "Resident index bytes held by the shard.", "gauge")
		for _, sh := range st.PerShard {
			m.value("lbe_shard_index_bytes", fmt.Sprintf(`shard="%d"`, sh.Rank), float64(sh.IndexBytes))
		}
		m.header("lbe_shard_work_units_total", "Deterministic work units per shard.", "counter")
		for _, sh := range st.PerShard {
			m.value("lbe_shard_work_units_total", fmt.Sprintf(`shard="%d"`, sh.Rank), float64(sh.WorkUnits))
		}
		m.header("lbe_shard_pruned_postings_total", "Postings skipped by the precursor-windowed scan, per shard.", "counter")
		for _, sh := range st.PerShard {
			m.value("lbe_shard_pruned_postings_total", fmt.Sprintf(`shard="%d"`, sh.Rank), float64(sh.PrunedPostings))
		}
		m.header("lbe_shard_query_seconds_total", "Query wall time per shard.", "counter")
		for _, sh := range st.PerShard {
			m.value("lbe_shard_query_seconds_total", fmt.Sprintf(`shard="%d"`, sh.Rank), sh.QueryMillis/1e3)
		}
	}

	sc := st.Scheduler
	if st.Cache != nil {
		m.appendCache("lbe_cache", st.Cache)
	}

	m.simple("lbe_sched_chunk_size", "Effective scheduler chunk granularity (queries).", "gauge", float64(sc.ChunkSize))
	m.simple("lbe_sched_batches_total", "Query batches the scheduler executed.", "counter", float64(sc.Batches))
	m.simple("lbe_sched_chunks_total", "Scheduler chunks executed.", "counter", float64(sc.Chunks))
	m.simple("lbe_sched_steals_total", "Steal-half operations performed.", "counter", float64(sc.Steals))
	m.simple("lbe_sched_chunks_stolen_total", "Chunks acquired by stealing.", "counter", float64(sc.Stolen))
	if len(sc.PerWorker) > 0 {
		m.header("lbe_worker_chunks_total", "Chunks executed per scheduler worker.", "counter")
		for _, w := range sc.PerWorker {
			m.value("lbe_worker_chunks_total", fmt.Sprintf(`worker="%d"`, w.Worker), float64(w.Chunks))
		}
		m.header("lbe_worker_chunks_stolen_total", "Chunks acquired by stealing, per scheduler worker.", "counter")
		for _, w := range sc.PerWorker {
			m.value("lbe_worker_chunks_stolen_total", fmt.Sprintf(`worker="%d"`, w.Worker), float64(w.Stolen))
		}
		m.header("lbe_worker_work_units_total", "Deterministic work units per scheduler worker.", "counter")
		for _, w := range sc.PerWorker {
			m.value("lbe_worker_work_units_total", fmt.Sprintf(`worker="%d"`, w.Worker), float64(w.WorkUnits))
		}
		m.header("lbe_worker_pruned_postings_total", "Postings skipped by the precursor-windowed scan, per scheduler worker.", "counter")
		for _, w := range sc.PerWorker {
			m.value("lbe_worker_pruned_postings_total", fmt.Sprintf(`worker="%d"`, w.Worker), float64(w.PrunedPostings))
		}
		m.header("lbe_worker_busy_seconds_total", "Busy wall time per scheduler worker.", "counter")
		for _, w := range sc.PerWorker {
			m.value("lbe_worker_busy_seconds_total", fmt.Sprintf(`worker="%d"`, w.Worker), w.BusyMillis/1e3)
		}
		m.header("lbe_worker_steals_total", "Steal operations per scheduler worker.", "counter")
		for _, w := range sc.PerWorker {
			m.value("lbe_worker_steals_total", fmt.Sprintf(`worker="%d"`, w.Worker), float64(w.Steals))
		}
	}
}

// appendCache renders one CacheStatsJSON block under the given metric
// name prefix ("lbe_cache" on replicas, "lbe_router_cache" on the
// router, where the aggregate already claims the plain lbe_cache names).
func (m *metricsWriter) appendCache(prefix string, cs *CacheStatsJSON) {
	m.simple(prefix+"_hits_total", "Answer cache hits.", "counter", float64(cs.Hits))
	m.simple(prefix+"_misses_total", "Answer cache misses (caller computed the value).", "counter", float64(cs.Misses))
	m.simple(prefix+"_evictions_total", "Entries evicted by the byte budget.", "counter", float64(cs.Evictions))
	m.simple(prefix+"_singleflight_collapsed_total", "Duplicate in-flight queries collapsed onto one computation.", "counter", float64(cs.Collapsed))
	m.simple(prefix+"_invalidated_total", "Entries dropped by digest-driven invalidation.", "counter", float64(cs.Invalidated))
	m.simple(prefix+"_entries", "Resident answer cache entries.", "gauge", float64(cs.Entries))
	m.simple(prefix+"_resident_bytes", "Resident answer cache bytes (keys + values + overhead).", "gauge", float64(cs.ResidentBytes))
	m.simple(prefix+"_capacity_bytes", "Configured answer cache byte budget.", "gauge", float64(cs.CapacityBytes))
}

// FormatMetrics renders one replica's StatsResponse as a Prometheus text
// exposition document.
func FormatMetrics(st *StatsResponse) []byte {
	var m metricsWriter
	m.appendStats(st)
	return m.buf.Bytes()
}

// FormatRouterMetrics renders the router's /stats as an exposition
// document: the aggregate StatsResponse (scalar sums over replicas with
// stats snapshots) under the lbe_ names, plus lbe_router_ metrics for
// routing and the per-replica registry.
func FormatRouterMetrics(st *RouterStatsResponse) []byte {
	var m metricsWriter
	m.appendStats(&st.Aggregate)

	m.simple("lbe_router_draining", "Whether the router is draining (1) or serving (0).", "gauge", b2f(st.Status != "ok"))
	if st.Digest != "" {
		m.header("lbe_router_index_info", "Cluster store identity: the digest the router requires replicas to match (always 1).", "gauge")
		m.value("lbe_router_index_info", fmt.Sprintf(`digest=%q`, st.Digest), 1)
	}
	m.simple("lbe_router_requests_routed_total", "Requests answered with a reply that stands: a 200 merged or relayed, or a relayed 4xx.", "counter", float64(st.Routed))
	m.simple("lbe_router_failovers_total", "Attempts retried on another replica after a failure.", "counter", float64(st.Failovers))
	m.header("lbe_router_bytes_total", "/search body bytes that crossed the router-replica hop, by direction.", "counter")
	m.value("lbe_router_bytes_total", `dir="sent"`, float64(st.BytesSent))
	m.value("lbe_router_bytes_total", `dir="received"`, float64(st.BytesReceived))
	m.header("lbe_router_requests_rejected_total", "Requests the router rejected, by reason.", "counter")
	m.value("lbe_router_requests_rejected_total", `reason="draining"`, float64(st.RejectedDrain))
	m.value("lbe_router_requests_rejected_total", `reason="no_replica"`, float64(st.RejectedNoReplica))
	if st.Scatter != nil {
		m.value("lbe_router_requests_rejected_total", `reason="shard_set_down"`, float64(st.Scatter.RejectedSetDown))
		m.simple("lbe_router_shard_sets", "Shard-sets in the discovered partition topology.", "gauge", float64(st.Scatter.Sets))
		m.simple("lbe_router_shard_sets_covered", "Shard-sets with at least one consistent healthy holder.", "gauge", float64(st.Scatter.Covered))
		m.simple("lbe_router_total_shards", "Total shards across the discovered partition topology.", "gauge", float64(st.Scatter.TotalShards))
		if len(st.Scatter.SetDigests) > 0 {
			m.header("lbe_router_shard_set_info", "Per-set store digest of the discovered topology (always 1).", "gauge")
			for i, d := range st.Scatter.SetDigests {
				m.value("lbe_router_shard_set_info", fmt.Sprintf(`set="%d",digest=%q`, i, d), 1)
			}
		}
	}
	if st.Cache != nil {
		m.appendCache("lbe_router_cache", st.Cache)
	}

	if len(st.Replicas) > 0 {
		m.header("lbe_router_replica_up", "Replica health from the last probe (1 healthy, 0 down).", "gauge")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_up", fmt.Sprintf(`replica=%q`, r.URL), b2f(r.Healthy))
		}
		m.header("lbe_router_replica_consistent", "Whether the replica's digest matches the cluster digest.", "gauge")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_consistent", fmt.Sprintf(`replica=%q`, r.URL), b2f(!r.DigestMismatch))
		}
		m.header("lbe_router_replica_routed_total", "Requests answered by the replica.", "counter")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_routed_total", fmt.Sprintf(`replica=%q`, r.URL), float64(r.Routed))
		}
		m.header("lbe_router_replica_failed_total", "Attempts that failed on the replica.", "counter")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_failed_total", fmt.Sprintf(`replica=%q`, r.URL), float64(r.Failed))
		}
		m.header("lbe_router_replica_bytes_total", "/search body bytes exchanged with the replica, by direction.", "counter")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_bytes_total", fmt.Sprintf(`replica=%q,dir="sent"`, r.URL), float64(r.BytesSent))
			m.value("lbe_router_replica_bytes_total", fmt.Sprintf(`replica=%q,dir="received"`, r.URL), float64(r.BytesReceived))
		}
		m.header("lbe_router_replica_connections_dialed_total", "Connections the router opened to the replica, probes included.", "counter")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_connections_dialed_total", fmt.Sprintf(`replica=%q`, r.URL), float64(r.Dials))
		}
		m.header("lbe_router_replica_queue_len", "Admission queue length last reported by the replica.", "gauge")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_queue_len", fmt.Sprintf(`replica=%q`, r.URL), float64(r.QueueLen))
		}
		m.header("lbe_router_replica_in_flight", "In-flight batches last reported by the replica.", "gauge")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_in_flight", fmt.Sprintf(`replica=%q`, r.URL), float64(r.InFlight))
		}
		m.header("lbe_router_replica_router_in_flight", "Requests the router currently has outstanding on the replica.", "gauge")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_router_in_flight", fmt.Sprintf(`replica=%q`, r.URL), float64(r.RouterInFlight))
		}
		m.header("lbe_router_replica_probe_age_ms", "Milliseconds since the replica's last successful probe (-1 before the first).", "gauge")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_probe_age_ms", fmt.Sprintf(`replica=%q`, r.URL), float64(r.ProbeAgeMillis))
		}
		m.header("lbe_router_replica_stats_age_ms", "Milliseconds since the replica's last stats snapshot (-1 before the first).", "gauge")
		for _, r := range st.Replicas {
			m.value("lbe_router_replica_stats_age_ms", fmt.Sprintf(`replica=%q`, r.URL), float64(r.StatsAgeMillis))
		}
		m.header("lbe_router_replica_info", "Replica identity: store digest and shard-set ordinal (0 for a whole store, -1 before the first probe; always 1).", "gauge")
		for _, r := range st.Replicas {
			set := -1
			if r.ShardSet != nil {
				set = r.ShardSet.Set
			}
			m.value("lbe_router_replica_info", fmt.Sprintf(`replica=%q,digest=%q,set="%d"`, r.URL, r.Digest, set), 1)
		}
	}
	return m.buf.Bytes()
}
