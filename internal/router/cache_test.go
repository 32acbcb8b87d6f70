package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/mods"
	"lbe/internal/server"
)

// startCachedReplica boots a replica with the replica-tier answer cache
// enabled, warm-started from the corpus store like startReplica.
func startCachedReplica(t *testing.T, c corpus) *testReplica {
	t.Helper()
	sess, peptides, err := engine.OpenSession(c.storeDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sess, peptides, server.Config{
		BatchSize:     8,
		FlushInterval: 2 * time.Millisecond,
		CacheBytes:    8 << 20,
	})
	ts := httptest.NewServer(srv.Handler())
	r := &testReplica{sess: sess, srv: srv, ts: ts}
	t.Cleanup(func() { r.kill() })
	return r
}

// zipfReplayOrder builds a duplicate-heavy request order: every query
// appears at least once (so responses can be checked exhaustively), plus
// extra zipf-skewed draws concentrating repeats on the head of the pool.
func zipfReplayOrder(rng *rand.Rand, pool, extra int, s float64) []int {
	cdf := make([]float64, pool)
	sum := 0.0
	for i := 0; i < pool; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	var order []int
	for i := 0; i < pool; i++ {
		order = append(order, i)
	}
	for j := 0; j < extra; j++ {
		k := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if k >= pool {
			k = pool - 1
		}
		order = append(order, k)
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	return order
}

// replayThrough posts the order through the router from concurrent
// clients and returns one body per query index, failing on any non-200
// or on duplicates of the same query receiving different bytes.
func replayThrough(t *testing.T, ts *httptest.Server, c corpus, order []int) [][]byte {
	t.Helper()
	got := make([][]byte, len(c.queries))
	errs := make([]error, len(order))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for j, qi := range order {
		wg.Add(1)
		go func(j, qi int) {
			defer wg.Done()
			status, data := postRaw(t, ts.Client(), ts.URL, c.queries[qi])
			if status != http.StatusOK {
				errs[j] = fmt.Errorf("replay %d (query %d): status %d: %s", j, qi, status, data)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if got[qi] != nil && !bytes.Equal(got[qi], data) {
				errs[j] = fmt.Errorf("query %d: concurrent duplicates received different bodies", qi)
				return
			}
			got[qi] = data
		}(j, qi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestCachedRouterMatchesSessionSearch is the two-tier equivalence
// check: a zipf-skewed duplicate-heavy workload from concurrent clients
// through a cache-enabled router over cache-enabled replicas must
// produce responses byte-identical to direct Session.Search, while the
// router cache demonstrably absorbs the repeats.
func TestCachedRouterMatchesSessionSearch(t *testing.T) {
	c := testCorpus(t)
	r1 := startCachedReplica(t, c)
	r2 := startCachedReplica(t, c)
	cfg := fastProbes()
	cfg.CacheBytes = 8 << 20
	rt, ts := testRouter(t, cfg, r1.ts.URL, r2.ts.URL)

	ref := referencePSMs(t, c)
	rng := rand.New(rand.NewSource(43))
	order := zipfReplayOrder(rng, len(c.queries), 2*len(c.queries), 1.2)
	got := replayThrough(t, ts, c, order)
	requireMatchesReference(t, c, ref, got)

	st := rt.Stats()
	if st.Cache == nil {
		t.Fatal("cache-enabled router reports no cache stats")
	}
	if st.Cache.Hits+st.Cache.Collapsed == 0 {
		t.Fatalf("duplicate-heavy replay produced no router cache hits or collapses: %+v", st.Cache)
	}
	if st.Cache.Misses > int64(len(c.queries)) {
		t.Errorf("%d router cache misses for a %d-query pool; duplicates were re-proxied",
			st.Cache.Misses, len(c.queries))
	}
	// The replica tier surfaces its own cache blocks through the
	// aggregate (the router's singleflight may absorb all duplicates, so
	// only misses are guaranteed there).
	if st.Aggregate.Cache == nil || st.Aggregate.Cache.Misses == 0 {
		t.Fatalf("replica cache blocks missing from aggregate: %+v", st.Aggregate.Cache)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %v", resp.StatusCode, err)
	}
	for _, want := range []string{
		"lbe_router_cache_hits_total", "lbe_router_cache_misses_total",
		"lbe_router_cache_invalidated_total", "lbe_router_cache_resident_bytes",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

// TestRouterCacheDigestFlipInvalidates swaps the store behind the
// router's lone replica URL mid-test: once the digest gate observes the
// change, the cached answers for the old store must be invalidated and
// subsequent responses must match a direct Session.Search over the NEW
// store, byte for byte.
func TestRouterCacheDigestFlipInvalidates(t *testing.T) {
	c := testCorpus(t)

	sessA, peptidesA, err := engine.OpenSession(c.storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer sessA.Close()
	srvA := server.New(sessA, peptidesA, server.Config{BatchSize: 8, FlushInterval: 2 * time.Millisecond})
	defer srvA.Close()

	// Store B is a genuinely different database — half the peptides —
	// built with the same engine knobs, so only the store differs.
	pepsB := c.peptides[:len(c.peptides)/2]
	cfgB := engine.DefaultSessionConfig()
	cfgB.Params.Mods = mods.Config{Mods: mods.PaperSet(), MaxPerPep: 1}
	cfgB.TopK = 5
	cfgB.Shards = 2
	sessB, err := engine.NewSession(pepsB, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer sessB.Close()
	srvB := server.New(sessB, pepsB, server.Config{BatchSize: 8, FlushInterval: 2 * time.Millisecond})
	defer srvB.Close()

	digestA, digestB := sessA.Digest(), sessB.Digest()
	if digestA == digestB || digestA == "" || digestB == "" {
		t.Fatalf("store digests must be distinct and non-empty: %q vs %q", digestA, digestB)
	}

	// One replica URL whose backing store can be swapped atomically —
	// the router sees the same endpoint change databases under it.
	var backend atomic.Value
	backend.Store(srvA.Handler())
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer front.Close()

	cfg := fastProbes()
	cfg.CacheBytes = 4 << 20
	rt, ts := testRouter(t, cfg, front.URL)

	render := func(sess *engine.Session, peps []string) [][]byte {
		ref, err := sess.Search(context.Background(), c.queries)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(c.queries))
		for i := range c.queries {
			w, err := json.Marshal(api.BuildSearchResponse(c.queries[i:i+1], ref.PSMs[i:i+1], peps))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = bytes.TrimSpace(w)
		}
		return out
	}
	wantA, wantB := render(sessA, peptidesA), render(sessB, pepsB)
	differs := 0
	for i := range wantA {
		if !bytes.Equal(wantA[i], wantB[i]) {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("both stores answer every query identically; the flip would be unobservable")
	}

	rng := rand.New(rand.NewSource(44))
	order := zipfReplayOrder(rng, len(c.queries), len(c.queries), 1.2)

	// Phase 1: populate and serve from the cache against store A.
	got := replayThrough(t, ts, c, order)
	for i := range got {
		if !bytes.Equal(bytes.TrimSpace(got[i]), wantA[i]) {
			t.Fatalf("pre-flip query %d differs from store A Session.Search", i)
		}
	}
	if st := rt.Stats(); st.Cache.Hits+st.Cache.Collapsed == 0 {
		t.Fatalf("pre-flip replay never exercised the cache: %+v", st.Cache)
	}

	// Flip the store. The probe loop must observe the digest change and
	// purge every entry cached under store A.
	backend.Store(srvB.Handler())
	waitFor(t, func() bool {
		st := rt.Stats()
		return st.Digest == digestB && st.Cache.Invalidated > 0
	}, "digest flip never invalidated the router cache")

	// Phase 2: every response now matches store B — a single stale body
	// served from the old store's entries would fail the comparison.
	got = replayThrough(t, ts, c, order)
	for i := range got {
		if !bytes.Equal(bytes.TrimSpace(got[i]), wantB[i]) {
			t.Fatalf("post-flip query %d differs from store B Session.Search\nrouted: %s\ndirect: %s",
				i, got[i], wantB[i])
		}
	}
}

// TestCachedRouterRejectsTrailingBytes: a body with bytes after the
// request object does not decode into a cache key, so it goes to a
// replica uncached — and the replica, which decodes with the same
// function, answers 400, which the router relays.
func TestCachedRouterRejectsTrailingBytes(t *testing.T) {
	c := testCorpus(t)
	r := startCachedReplica(t, c)
	cfg := fastProbes()
	cfg.CacheBytes = 4 << 20
	rt, ts := testRouter(t, cfg, r.ts.URL)

	one, err := json.Marshal(api.SearchRequest{Spectra: []api.SpectrumJSON{api.FromExperimental(c.queries[0])}})
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
	if status, data := postRaw(t, ts.Client(), ts.URL, c.queries[0]); status != http.StatusOK {
		t.Fatalf("the same body without trailing bytes: status %d: %s", status, data)
	}
}
