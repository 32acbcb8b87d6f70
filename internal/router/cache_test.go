package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/oracle"
	"lbe/internal/server"
)

// TestRouterCacheDigestFlipInvalidates swaps the store behind the
// router's lone replica URL mid-test: once the digest gate observes the
// change, the cached answers for the old store must be invalidated and
// subsequent responses must match a direct Session.Search over the NEW
// store, byte for byte.
func TestRouterCacheDigestFlipInvalidates(t *testing.T) {
	// Store B is a genuinely different database — half the peptides —
	// built with the same engine knobs, so only the store differs.
	c := oracle.Generated(t)
	half := &oracle.Corpus{Name: "half", Peptides: c.Peptides[:len(c.Peptides)/2], Queries: c.Queries}
	var stores [2]*cluster
	var handlers [2]http.Handler
	for i, corpus := range []*oracle.Corpus{c, half} {
		cell := oracle.Cell{Corpus: corpus, Shape: oracle.Shapes[1]}
		sess, err := engine.NewSession(corpus.Peptides, engine.SessionConfig{Config: cell.Config(), Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		ref, err := sess.Search(context.Background(), corpus.Queries)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(sess, corpus.Peptides, server.Config{BatchSize: 8, FlushInterval: 2 * time.Millisecond})
		defer srv.Close()
		stores[i], handlers[i] = &cluster{Cell: cell, ref: ref, digest: sess.Digest()}, srv.Handler()
	}
	a, b := stores[0], stores[1]
	if a.digest == b.digest || a.digest == "" || b.digest == "" {
		t.Fatalf("store digests must be distinct and non-empty: %q vs %q", a.digest, b.digest)
	}
	if reflect.DeepEqual(a.ref.PSMs, b.ref.PSMs) {
		t.Fatal("both stores answer every query identically; the flip would be unobservable")
	}

	// One replica URL whose backing store can be swapped atomically —
	// the router sees the same endpoint change databases under it.
	var backend atomic.Value
	backend.Store(handlers[0])
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer front.Close()
	cfg := fastProbes()
	cfg.CacheBytes = 4 << 20
	rt, ts := testRouter(t, cfg, front.URL)

	// Phase 1: populate and serve from the cache against store A.
	drive(t, ts.URL, a, 2, nil)
	if st := rt.Stats(); st.Cache.Hits+st.Cache.Collapsed == 0 {
		t.Fatalf("pre-flip replay never exercised the cache: %+v", st.Cache)
	}

	// Flip the store. The probe loop must observe the digest change and
	// purge every entry cached under store A.
	backend.Store(handlers[1])
	waitFor(t, func() bool {
		st := rt.Stats()
		return st.Digest == b.digest && st.Cache.Invalidated > 0
	}, "digest flip never invalidated the router cache")

	// Phase 2: every response now matches store B — a single stale body
	// served from the old store's entries would fail the comparison.
	drive(t, ts.URL, b, 2, nil)
}

// TestCachedRouterRejectsTrailingBytes: a body with bytes after the
// request object does not decode into a cache key, so it goes to a
// replica uncached — and the replica, which decodes with the same
// function, answers 400, which the router relays.
func TestCachedRouterRejectsTrailingBytes(t *testing.T) {
	c := oracle.Generated(t)
	sess, err := engine.NewSession(c.Peptides, engine.SessionConfig{Config: oracle.Cell{Corpus: c, Shape: oracle.Shapes[1]}.Config(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := startReplica(t, sess, c.Peptides, 4<<20)
	cfg := fastProbes()
	cfg.CacheBytes = 4 << 20
	rt, ts := testRouter(t, cfg, r.ts.URL)

	one, err := json.Marshal(api.SearchRequest{Spectra: []api.SpectrumJSON{api.FromExperimental(c.Queries[0])}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{" garbage", "{}", "]"} {
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", strings.NewReader(string(one)+tail))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body followed by %q: status %d, want 400; body %s", tail, resp.StatusCode, data)
		}
	}
	if st := rt.Stats(); st.Cache.Entries != 0 || st.Cache.Hits+st.Cache.Misses != 0 {
		t.Fatalf("undecodable bodies touched the router cache: %+v", st.Cache)
	}
	if _, err := post(ts.URL, c.Queries[:1]); err != nil {
		t.Fatalf("the same body without trailing bytes: %v", err)
	}
}
