package server

import (
	"context"

	"lbe/internal/engine"
	"lbe/internal/qcache"
	"lbe/internal/spectrum"
)

// The answer cache sits in front of the coalescer: per-spectrum PSM
// lists keyed on (canonical spectrum content × session digest). Caching
// engine results rather than rendered responses lets a
// multi-spectrum request hit entry-by-entry — and since every /search
// reply is rendered through api.BuildSearchResponse from those PSMs, a
// cached answer is byte-identical to an uncached one by construction
// (scan numbers are echoed from the request, never from the cache).

// psmsSize approximates one cached PSM list's resident bytes: slice
// header + backing array of ~40-byte engine.PSM values.
func psmsSize(ps []engine.PSM) int { return 64 + 40*len(ps) }

// cacheKeyer binds every cache key to the session's digest, which covers
// the database and the whole Shape (fresh: canonicalDigest; stored: the
// manifest hash) — everything that decides an answer's bytes, and nothing
// a Session can change after construction.
func cacheKeyer(sess *engine.Session) qcache.Keyer {
	return qcache.NewKeyer(sess.Digest())
}

// searchViaQueue submits one query slice through the bounded queue and
// coalescer and waits for its slice of a merged batch. The error is
// ErrDraining, ErrQueueFull, a context error, or the engine's.
func (s *Server) searchViaQueue(ctx context.Context, qs []spectrum.Experimental) ([][]engine.PSM, error) {
	rq := &request{ctx: ctx, queries: qs, resp: make(chan response, 1)}
	if err := s.submit(rq); err != nil {
		return nil, err
	}
	select {
	case resp := <-rq.resp:
		return resp.psms, resp.err
	case <-ctx.Done():
		// The dispatcher still answers rq.resp (buffered) and settles
		// the accounting; nobody blocks on this abandonment.
		return nil, ctx.Err()
	}
}

// search answers one request's queries, through the cache when enabled.
func (s *Server) search(ctx context.Context, qs []spectrum.Experimental) ([][]engine.PSM, error) {
	if s.cache == nil {
		return s.searchViaQueue(ctx, qs)
	}
	return s.searchCached(ctx, qs)
}

// searchCached resolves each query against the cache, collapses
// duplicates onto in-flight computations, and sends only the residual
// misses through the coalescer.
//
// Cancellation safety: a leader whose engine search fails (including by
// cancellation) aborts its flights, so nothing poisons an entry and
// waiters wake to retry; a waiter abandoning its wait touches nothing.
func (s *Server) searchCached(ctx context.Context, qs []spectrum.Experimental) ([][]engine.PSM, error) {
	out := make([][]engine.PSM, len(qs))
	keys := make([]string, len(qs))
	pending := make([]int, len(qs))
	for i, q := range qs {
		keys[i] = s.keyer.Spectrum(q)
		pending[i] = i
	}

	for len(pending) > 0 {
		var leaders, waiters []int
		var leadF, waitF []*qcache.Flight[[]engine.PSM]
		for _, i := range pending {
			v, f, o := s.cache.Acquire(keys[i])
			switch o {
			case qcache.Hit:
				out[i] = v
			case qcache.Lead:
				leaders = append(leaders, i)
				leadF = append(leadF, f)
			default: // qcache.Wait — possibly on this request's own leader
				waiters = append(waiters, i)
				waitF = append(waitF, f)
			}
		}

		if len(leaders) > 0 {
			sub := make([]spectrum.Experimental, len(leaders))
			for j, i := range leaders {
				sub[j] = qs[i]
			}
			res, err := s.searchViaQueue(ctx, sub)
			if err != nil {
				for _, f := range leadF {
					f.Abort()
				}
				return nil, err
			}
			for j, i := range leaders {
				out[i] = res[j]
				leadF[j].Complete(res[j])
			}
		}

		pending = pending[:0]
		for j, i := range waiters {
			select {
			case <-waitF[j].Done():
				if v, ok := waitF[j].Result(); ok {
					out[i] = v
				} else {
					pending = append(pending, i) // leader aborted; retry
				}
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	return out, nil
}
