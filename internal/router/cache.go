package router

import (
	"net/http"

	"lbe/internal/api"
	"lbe/internal/qcache"
)

// The router's answer cache stores whole rendered response bodies under
// the cluster digest: holders already guarantee byte-identical answers
// for a given digest (the consistency gate refuses to mix digests), so a
// 200 body replayed from the cache is exactly what the holders would
// produce. The digest is engine.ComposeClusterDigest over the per-set
// digests (one set's digest is the cluster's) and goes empty whenever a
// shard-set is dark, so partial topologies bypass the cache entirely — a
// body is only ever cached under full coverage.
// Keys embed the digest, making entries from a retired store unreachable
// the moment a probe observes the flip; probeAll additionally purges the
// cache then, returning the memory and making the invalidation
// observable in the counters.

// cacheKey canonicalizes one raw /search body into a cache key: the
// request is decoded by the function a replica decodes it with
// (api.DecodeSearchRequest: sorted peaks, validation), so textually
// different encodings of the same request share an entry. ok is false
// when the body does not decode, holds no spectra, or no cluster digest
// is known — those requests are forwarded uncached (the holder owns the
// error reply).
func (rt *Router) cacheKey(body []byte) (string, bool) {
	qs, err := api.DecodeSearchRequest(body)
	if err != nil || len(qs) == 0 {
		return "", false
	}
	rt.mu.RLock()
	digest := rt.clusterDigest
	rt.mu.RUnlock()
	if digest == "" {
		return "", false
	}
	return qcache.NewKeyer(digest).Request(qs), true
}

// writeCached replays one cached 200 body.
func writeCached(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// searchCached serves one /search through the cache: hits replay the
// stored body, duplicates of an in-flight request wait for its reply,
// and only the singleflight leader runs the scatter/gather round. Only a
// 200 is cached; any other outcome aborts the flight so waiters retry
// (or lead their own attempt) — a failed or cancelled round can never
// poison an entry.
func (rt *Router) searchCached(w http.ResponseWriter, r *http.Request, body []byte) {
	key, ok := rt.cacheKey(body)
	if !ok {
		rt.scatterSearch(w, r, body)
		return
	}
	for {
		v, f, o := rt.cache.Acquire(key)
		switch o {
		case qcache.Hit:
			writeCached(w, v)
			return
		case qcache.Lead:
			status, data := rt.scatterSearch(w, r, body)
			if status == http.StatusOK {
				f.Complete(data)
			} else {
				f.Abort()
			}
			return
		default: // qcache.Wait
			select {
			case <-f.Done():
				if v, ok := f.Result(); ok {
					writeCached(w, v)
					return
				}
				// Leader aborted (replica error or caller hangup);
				// re-acquire — this caller may lead the retry.
			case <-r.Context().Done():
				api.WriteError(w, http.StatusGatewayTimeout, "request cancelled: %v", r.Context().Err())
				return
			}
		}
	}
}
