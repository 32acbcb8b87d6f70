package router

import (
	"context"
	"errors"
	"net/http"
	"sync"

	"lbe/internal/api"
	"lbe/internal/engine"
)

// Scatter/gather: the one gate, the one failover loop and the one reply
// policy. The replicas hold shard-sets of one store and announce their
// slice on /healthz (probeOne reads a missing announcement as the
// one-set partition a whole store is). The router discovers the topology
// from those announcements — no static configuration — and fans each
// /search to one healthy holder per set. One set: the holder's reply is
// the answer and is relayed untouched. Several: the per-set top-K merge
// with api.MergeSearchResponses into the bytes a whole-store session
// would have produced: each reply decoded in one pass
// (api.DecodeSearchResponse), its already-sorted lists merged, the result
// re-encoded (api.AppendSearchResponse). A reply that is not what a
// holder writes — undecodable, or a list out of ComparePSM order — is a
// 502, never a silently wrong merge. Partial coverage is an explicit
// failure: a set with no consistent healthy holder fails the query with a
// 503 naming the set, never a silently truncated answer.

// scatterState is the topology the probe loop discovered: the partition
// shape, the per-set store digests, and how many sets currently have a
// routable holder. It is rebuilt wholesale by every probe round and read
// under Router.mu.
type scatterState struct {
	sets        int      // shard-sets in the partition
	totalShards int      // shards across the whole store
	topK        int      // per-spectrum PSM cap the holders enforce
	covered     int      // sets with at least one routable holder
	setDigests  []string // per-set digest; "" while a set has no healthy holder
}

// conforms reports whether a replica's announced slice belongs to the
// partition shape the router locked onto.
func conforms(ss, shape *api.ShardSetJSON) bool {
	return ss != nil && ss.Sets == shape.Sets && ss.TotalShards == shape.TotalShards &&
		ss.TopK == shape.TopK && ss.Set >= 0 && ss.Set < shape.Sets
}

// gate derives the consistency view. The partition shape is the
// lowest-indexed healthy replica's — a deterministic choice that follows
// a coordinated store upgrade by itself, and means a registry mixing
// whole-store replicas with partial holders locks onto whichever shape
// is listed first, never a blend. Each set's digest is its
// lowest-indexed conforming healthy holder's, and holders disagreeing
// with their set's digest or with the shape are gated out of routing.
// The cluster digest composes the per-set digests — but only once every
// set is covered; with a set dark there is no whole-store contract to
// cache under, so the digest goes empty and the answer cache is bypassed
// rather than fed partial answers.
func (rt *Router) gate() {
	var shape *api.ShardSetJSON
	for _, r := range rt.replicas {
		r.mu.Lock()
		if r.healthy && shape == nil && r.shardSet.Sets >= 1 {
			ss := *r.shardSet
			shape = &ss
		}
		r.mu.Unlock()
	}
	if shape == nil {
		// No healthy replica announces a usable shape: keep any
		// previously discovered one out of play and route nowhere until
		// a holder returns.
		rt.setClusterDigest("", nil)
		for _, r := range rt.replicas {
			r.mu.Lock()
			r.mismatch = r.healthy
			r.mu.Unlock()
		}
		return
	}
	sc := &scatterState{
		sets:        shape.Sets,
		totalShards: shape.TotalShards,
		topK:        shape.TopK,
		setDigests:  make([]string, shape.Sets),
	}
	held := make([]bool, shape.Sets)
	for _, r := range rt.replicas {
		r.mu.Lock()
		if r.healthy && conforms(r.shardSet, shape) && !held[r.shardSet.Set] {
			held[r.shardSet.Set] = true
			sc.setDigests[r.shardSet.Set] = r.digest
			sc.covered++
		}
		r.mu.Unlock()
	}
	for _, r := range rt.replicas {
		r.mu.Lock()
		r.mismatch = r.healthy &&
			(!conforms(r.shardSet, shape) || r.digest != sc.setDigests[r.shardSet.Set])
		r.mu.Unlock()
	}
	digest := ""
	if sc.covered == sc.sets {
		digest = engine.ComposeClusterDigest(sc.setDigests)
	}
	rt.setClusterDigest(digest, sc)
}

// scatterView snapshots the discovered topology, nil while no replica
// is healthy.
func (rt *Router) scatterView() *scatterState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.scatter
}

// setReply is one shard-set's outcome of a scatter round.
type setReply struct {
	status   int    // HTTP status of the reply that stands; 0 if none
	data     []byte // body of that reply
	err      error  // transport failure with no HTTP reply
	noHolder bool   // no routable holder was available for the set
}

// fetchSet runs the failover loop for one set: each attempt goes to a
// routable holder of the set not yet tried, within the FailoverRetries
// budget. A transport failure (a per-attempt timeout included) marks the
// holder down until the next probe revives it — it is likely gone. A
// retryable status (429, 5xx) means the holder is alive but cannot serve
// this request (drain, overload, engine failure): its health is left to
// the prober and the request goes to the next holder. A caller that hung
// up or timed out is not the holder's failure, so its health stands.
func (rt *Router) fetchSet(ctx context.Context, set int, body []byte) setReply {
	tried := make(map[*replica]bool)
	attempts := 1 + rt.cfg.FailoverRetries
	triedAny := false
	var last setReply
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return setReply{err: err}
		}
		rep := rt.pick(set, tried)
		if rep == nil {
			break
		}
		triedAny = true
		tried[rep] = true
		if attempt > 0 {
			rt.failovers.Add(1)
		}

		rep.inflight.Add(1)
		rep.bytesSent.Add(int64(len(body)))
		status, data, err := rep.client.Do(ctx, http.MethodPost, "/search", body)
		rep.bytesRecv.Add(int64(len(data)))
		rep.inflight.Add(-1)

		if err != nil {
			if ctx.Err() != nil {
				return setReply{err: ctx.Err()}
			}
			rep.failed.Add(1)
			rep.markDown()
			last = setReply{err: err}
			continue
		}
		if status >= http.StatusInternalServerError || status == http.StatusTooManyRequests {
			rep.failed.Add(1)
			last = setReply{status: status, data: data}
			continue
		}
		rep.routed.Add(1)
		return setReply{status: status, data: data}
	}
	if !triedAny {
		return setReply{noHolder: true}
	}
	return last
}

// relay writes one replica reply verbatim, preserving Retry-After
// semantics on backpressure.
func relay(w http.ResponseWriter, status int, data []byte) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// scatterSearch fans one raw /search body to one holder of every
// shard-set concurrently, gathers the per-set replies, and writes the
// outcome. It returns the (status, data) it wrote when that is a holder's
// or the merged reply, so a caching caller can store a 200 body, and
// (0, nil) for synthesized errors.
//
// Reply policy, strictest first: a cancelled caller wins (504); then an
// uncovered set (503 naming the set — explicit partial-failure, never
// truncation); then a definitive non-retryable holder reply such as a
// 400, relayed verbatim (every set saw the same request, so one set's
// verdict is the request's); then a final retryable reply (429, 503,
// 5xx) relayed verbatim, preserving the holder's error body and the
// Retry-After semantics a backoff-aware client depends on; then a
// transport failure (504 when the last attempt ran out its per-attempt
// deadline, 502 otherwise). Only when every set answered 200 is there an
// answer: the one set's bytes as they arrived, or the merge of several.
func (rt *Router) scatterSearch(w http.ResponseWriter, r *http.Request, body []byte) (int, []byte) {
	sc := rt.scatterView()
	if sc == nil {
		rt.rejectedNoReplica.Add(1)
		api.WriteError(w, http.StatusServiceUnavailable, "no healthy replica available")
		return 0, nil
	}
	// Set 0 is fetched on this goroutine: a one-set topology spawns none.
	replies := make([]setReply, sc.sets)
	var wg sync.WaitGroup
	for s := 1; s < sc.sets; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			replies[s] = rt.fetchSet(r.Context(), s, body)
		}(s)
	}
	replies[0] = rt.fetchSet(r.Context(), 0, body)
	wg.Wait()

	if err := r.Context().Err(); err != nil {
		api.WriteError(w, http.StatusGatewayTimeout, "request cancelled: %v", err)
		return 0, nil
	}
	for s, rep := range replies {
		if rep.noHolder {
			rt.rejectedSetDown.Add(1)
			api.WriteError(w, http.StatusServiceUnavailable,
				"shard-set %d of %d has no consistent healthy holder", s, sc.sets)
			return 0, nil
		}
	}
	for _, rep := range replies {
		if rep.status != 0 && rep.status != http.StatusOK &&
			rep.status < http.StatusInternalServerError && rep.status != http.StatusTooManyRequests {
			rt.routed.Add(1)
			relay(w, rep.status, rep.data)
			return rep.status, rep.data
		}
	}
	for _, rep := range replies {
		if rep.status != 0 && rep.status != http.StatusOK {
			relay(w, rep.status, rep.data)
			return rep.status, rep.data
		}
	}
	for s, rep := range replies {
		switch {
		case rep.err == nil:
		case errors.Is(rep.err, context.Canceled) || errors.Is(rep.err, context.DeadlineExceeded):
			api.WriteError(w, http.StatusGatewayTimeout, "shard-set %d: deadline exceeded: %v", s, rep.err)
			return 0, nil
		default:
			api.WriteError(w, http.StatusBadGateway, "shard-set %d: every attempted holder failed: %v", s, rep.err)
			return 0, nil
		}
	}

	data := replies[0].data
	if sc.sets > 1 {
		var ok bool
		if data, ok = rt.mergeReplies(w, replies, sc.topK); !ok {
			return 0, nil
		}
	}
	rt.routed.Add(1)
	relay(w, http.StatusOK, data)
	return http.StatusOK, data
}

// mergeReplies decodes every set's 200 body and renders the merged
// response; on failure it writes the 502 itself and reports false.
func (rt *Router) mergeReplies(w http.ResponseWriter, replies []setReply, topK int) ([]byte, bool) {
	parts := make([]api.SearchResponse, len(replies))
	size := 0
	for s, rep := range replies {
		var err error
		if parts[s], err = api.DecodeSearchResponse(rep.data); err != nil {
			api.WriteError(w, http.StatusBadGateway, "shard-set %d returned an undecodable body: %v", s, err)
			return nil, false
		}
		size += len(rep.data)
	}
	merged, err := api.MergeSearchResponses(parts, topK)
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, "gather: %v", err)
		return nil, false
	}
	// Rendered with the replicas' own encoder, which writes
	// json.Encoder's bytes: the merged body must be indistinguishable
	// from a whole-store replica's, cached or not. The merge keeps a
	// subset of the replies' rows, so their total size sizes the buffer.
	return api.AppendSearchResponse(make([]byte, 0, size), merged), true
}
