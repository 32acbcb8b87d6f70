package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/mods"
	"lbe/internal/oracle"
	"lbe/internal/spectrum"
)

func testSession(t *testing.T, c *oracle.Corpus, shards int) *engine.Session {
	t.Helper()
	cfg := engine.DefaultSessionConfig()
	cfg.Params.Mods = mods.Config{Mods: mods.PaperSet(), MaxPerPep: 1}
	cfg.TopK = 5
	cfg.Shards = shards
	sess, err := engine.NewSession(c.Peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess
}

// toWire converts an engine query to its JSON request form.
func toWire(e spectrum.Experimental) api.SpectrumJSON {
	return api.FromExperimental(e)
}

func postSearch(t *testing.T, client *http.Client, url string, spectra ...api.SpectrumJSON) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(api.SearchRequest{Spectra: spectra})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestCoalesceMergesConcurrentRequests asserts that concurrent small
// requests share engine batches: with a flush window much longer than
// request skew, K single-query requests must arrive in far fewer than K
// coalesced batches.
func TestCoalesceMergesConcurrentRequests(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 2)
	const k = 16
	srv := New(sess, c.Peptides, Config{BatchSize: k, FlushInterval: 300 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postSearch(t, ts.Client(), ts.URL, toWire(c.Queries[i%len(c.Queries)]))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Accepted != k {
		t.Fatalf("accepted %d requests, want %d", st.Accepted, k)
	}
	if st.BatchedQueries != k {
		t.Fatalf("batched %d queries, want %d", st.BatchedQueries, k)
	}
	// All k requests land within the 300ms window, so they should pack
	// into very few batches; allow slack for slow-starting goroutines
	// under the race detector, but far fewer than one batch per request.
	if st.Batches >= k/2 {
		t.Fatalf("%d requests produced %d batches; coalescing is not merging", k, st.Batches)
	}
	// The engine-side hook agrees: each coalesced batch of <= BatchSize
	// queries is one session pipeline batch.
	if sb := sess.Batches(); sb != st.Batches {
		t.Fatalf("session saw %d batches, server dispatched %d", sb, st.Batches)
	}
}

// TestDispatchedBatchesRespectCap is the regression test for the
// coalescer overshoot bug: requests used to be appended whole after a
// "total < BatchSize" check, so one request near MaxQueriesPerRequest
// blew far past the cap. Every dispatched batch must now hold at most
// BatchSize queries — except a single request that alone exceeds the
// cap, which must dispatch as exactly one batch of its own.
func TestDispatchedBatchesRespectCap(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 1)
	const maxBatch = 8
	srv := New(sess, c.Peptides, Config{
		BatchSize:     maxBatch,
		FlushInterval: 200 * time.Millisecond,
		MaxInFlight:   2,
	})
	defer srv.Close()

	var mu sync.Mutex
	var sizes []int
	inner := sess.Search
	srv.searchFn = func(ctx context.Context, qs []spectrum.Experimental) (*engine.Result, error) {
		mu.Lock()
		sizes = append(sizes, len(qs))
		mu.Unlock()
		return inner(ctx, qs)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wire := func(n int) []api.SpectrumJSON {
		out := make([]api.SpectrumJSON, n)
		for i := range out {
			out[i] = toWire(c.Queries[i%len(c.Queries)])
		}
		return out
	}

	// Concurrent small requests: 3+3+3+5+2+7+1 = 24 queries. However they
	// interleave within the flush window, no dispatched batch may exceed
	// the cap.
	var wg sync.WaitGroup
	for _, n := range []int{3, 3, 3, 5, 2, 7, 1} {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			resp, body := postSearch(t, ts.Client(), ts.URL, wire(n)...)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%d-query request: status %d: %s", n, resp.StatusCode, body)
			}
		}(n)
	}
	wg.Wait()

	mu.Lock()
	small := append([]int(nil), sizes...)
	sizes = sizes[:0]
	mu.Unlock()
	if len(small) == 0 {
		t.Fatal("no batches dispatched")
	}
	for _, n := range small {
		if n > maxBatch {
			t.Errorf("dispatched a %d-query batch; cap is %d (all: %v)", n, maxBatch, small)
		}
	}

	// One oversized request must dispatch alone as a single batch.
	resp, body := postSearch(t, ts.Client(), ts.URL, wire(maxBatch+13)...)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oversized request: status %d: %s", resp.StatusCode, body)
	}
	mu.Lock()
	over := append([]int(nil), sizes...)
	mu.Unlock()
	if len(over) != 1 || over[0] != maxBatch+13 {
		t.Errorf("oversized request dispatched as %v, want one batch of %d", over, maxBatch+13)
	}
}

// blockingSearch substitutes the engine search with one that parks until
// released (or its context ends), so tests can hold batches in flight.
type blockingSearch struct {
	started chan struct{} // receives one value per search invocation
	release chan struct{} // close to let searches complete
	inner   func(context.Context, []spectrum.Experimental) (*engine.Result, error)
}

func newBlockingSearch(sess *engine.Session) *blockingSearch {
	return &blockingSearch{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
		inner:   sess.Search,
	}
}

func (b *blockingSearch) search(ctx context.Context, qs []spectrum.Experimental) (*engine.Result, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.inner(ctx, qs)
}

// TestQueueFullReturns429 fills the admission path — one batch parked in
// flight, one stuck in the coalescer waiting for a slot, QueueDepth
// requests queued — and asserts the next request is rejected with 429
// and a Retry-After header.
func TestQueueFullReturns429(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 1)
	srv := New(sess, c.Peptides, Config{
		BatchSize:     1,
		FlushInterval: time.Millisecond,
		QueueDepth:    2,
		MaxInFlight:   1,
	})
	defer srv.Close()
	bs := newBlockingSearch(sess)
	srv.searchFn = bs.search
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := toWire(c.Queries[0])
	send := func() {
		go func() {
			body, _ := json.Marshal(api.SearchRequest{Spectra: []api.SpectrumJSON{q}})
			resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}

	// Request A reaches the worker and parks in searchFn.
	send()
	select {
	case <-bs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the search worker")
	}
	// Request B: collected by the coalescer, which now blocks acquiring
	// the single in-flight slot. Requests C, D: fill the depth-2 queue.
	for i := 0; i < 3; i++ {
		send()
	}
	waitFor(t, func() bool { return srv.Stats().QueueLen == 2 }, "queue never filled")

	// The next request must bounce with 429.
	resp, body := postSearch(t, ts.Client(), ts.URL, q)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if st := srv.Stats(); st.RejectedQueue == 0 {
		t.Error("stats do not count the queue-full rejection")
	}

	close(bs.release) // let the parked batches finish
	waitFor(t, func() bool { return srv.Stats().QueueLen == 0 }, "queue never drained")
}

// TestShutdownDrainsInFlight asserts graceful shutdown: requests already
// accepted complete with 200s, requests arriving after Shutdown begins
// get 503, and Shutdown returns only once everything is answered.
func TestShutdownDrainsInFlight(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 1)
	srv := New(sess, c.Peptides, Config{BatchSize: 4, FlushInterval: time.Millisecond})
	bs := newBlockingSearch(sess)
	srv.searchFn = bs.search
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const k = 4
	codes := make(chan int, k)
	for i := 0; i < k; i++ {
		go func(i int) {
			resp, _ := postSearch(t, ts.Client(), ts.URL, toWire(c.Queries[i]))
			codes <- resp.StatusCode
		}(i)
	}
	// Wait until at least one batch is parked in the worker and every
	// request has been admitted — a request still in its HTTP handler
	// when drain starts is correctly refused with 503, which is not what
	// this test is about.
	select {
	case <-bs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no batch reached the search worker")
	}
	waitFor(t, func() bool { return srv.Stats().Accepted == k }, "requests never all admitted")

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	waitFor(t, srv.isDraining, "server never started draining")

	// New work is refused while draining.
	resp, body := postSearch(t, ts.Client(), ts.URL, toWire(c.Queries[0]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503; body %s", resp.StatusCode, body)
	}

	close(bs.release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	for i := 0; i < k; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d, want 200", code)
		}
	}
}

// TestClientDisconnectCancelsBatch asserts the context plumbing: when
// every client in a merged batch disconnects, the batch's search context
// is cancelled instead of burning shard time for nobody.
func TestClientDisconnectCancelsBatch(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 1)
	srv := New(sess, c.Peptides, Config{BatchSize: 1, FlushInterval: time.Millisecond})
	defer srv.Close()

	cancelled := make(chan struct{})
	srv.searchFn = func(ctx context.Context, qs []spectrum.Experimental) (*engine.Result, error) {
		<-ctx.Done() // park until the disconnect propagates
		close(cancelled)
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(api.SearchRequest{Spectra: []api.SpectrumJSON{toWire(c.Queries[0])}})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()

	// Give the request time to reach the parked searchFn, then hang up.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("batch context not cancelled after client disconnect")
	}
	<-done
}

// TestRequestValidation covers the handler's rejection paths.
func TestRequestValidation(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 1)
	srv := New(sess, c.Peptides, Config{MaxQueriesPerRequest: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get, err := ts.Client().Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search: status %d, want 405", get.StatusCode)
	}

	resp, err := ts.Client().Post(ts.URL+"/search", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	resp, body := postSearch(t, ts.Client(), ts.URL)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty spectra: status %d, want 400; body %s", resp.StatusCode, body)
	}

	q := toWire(c.Queries[0])
	resp, body = postSearch(t, ts.Client(), ts.URL, q, q, q)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized request: status %d, want 413; body %s", resp.StatusCode, body)
	}

	bad := api.SpectrumJSON{PrecursorMZ: -5, Peaks: [][2]float64{{100, 1}}}
	resp, body = postSearch(t, ts.Client(), ts.URL, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spectrum: status %d, want 400; body %s", resp.StatusCode, body)
	}

	// A body past MaxBodyBytes is 413, like too many spectra: the
	// request is well formed, only too big. The padding keeps it valid
	// JSON, so nothing but the limit can refuse it.
	small := New(sess, c.Peptides, Config{MaxBodyBytes: 4096})
	defer small.Close()
	smallTS := httptest.NewServer(small.Handler())
	defer smallTS.Close()
	one, err := json.Marshal(api.SearchRequest{Spectra: []api.SpectrumJSON{q}})
	if err != nil {
		t.Fatal(err)
	}
	padded := append(one, bytes.Repeat([]byte(" "), 5000)...)
	resp, err = smallTS.Client().Post(smallTS.URL+"/search", "application/json", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "4096 bytes") {
		t.Errorf("%d-byte body over a 4096-byte limit: status %d, want 413; body %s", len(padded), resp.StatusCode, body)
	}
}

// TestRequestRejectsTrailingBytes: anything but whitespace after the
// request object is a 400 — the whole body is the request, not just its
// first JSON value.
func TestRequestRejectsTrailingBytes(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 1)
	srv := New(sess, c.Peptides, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	one, err := json.Marshal(api.SearchRequest{Spectra: []api.SpectrumJSON{toWire(c.Queries[0])}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"", " \n\t", " garbage", "{}", "]"} {
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", strings.NewReader(string(one)+tail))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := http.StatusBadRequest
		if strings.TrimSpace(tail) == "" {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("body followed by %q: status %d, want %d; body %s", tail, resp.StatusCode, want, body)
		}
	}
}

// TestOutsizedBodyBufferNotPooled: a buffer that grew past
// maxPooledBody is dropped, so one large request cannot pin its body's
// memory in the pool.
func TestOutsizedBodyBufferNotPooled(t *testing.T) {
	big := make([]byte, 0, maxPooledBody+1)
	recycleBody(&big)
	if got := bodyBuffers.Get().(*[]byte); got == &big {
		t.Fatal("a buffer over maxPooledBody went back to the pool")
	}
}

// TestHealthAndStatsEndpoints exercises the operational endpoints before
// and during drain.
func TestHealthAndStatsEndpoints(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 2)
	srv := New(sess, c.Peptides, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Shards != 2 {
		t.Fatalf("healthz: status %d body %+v", resp.StatusCode, h)
	}
	if h.Digest == "" || h.Digest != sess.Digest() {
		t.Fatalf("healthz digest %q does not expose the session digest %q", h.Digest, sess.Digest())
	}

	q := toWire(c.Queries[0])
	if r, body := postSearch(t, ts.Client(), ts.URL, q); r.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", r.StatusCode, body)
	}

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Accepted != 1 || st.Searched != 1 || st.Batches != 1 {
		t.Fatalf("stats after one search: %+v", st)
	}
	if st.IndexBytes <= 0 || len(st.PerShard) != 2 {
		t.Fatalf("stats missing session figures: %+v", st)
	}
	if st.Scheduler.Batches == 0 || st.Scheduler.Chunks == 0 || len(st.Scheduler.PerWorker) == 0 {
		t.Fatalf("stats missing scheduler telemetry: %+v", st.Scheduler)
	}
	var workerUnits, shardUnits int64
	for _, w := range st.Scheduler.PerWorker {
		workerUnits += w.WorkUnits
	}
	for _, sh := range st.PerShard {
		shardUnits += sh.WorkUnits
	}
	if workerUnits != shardUnits {
		t.Fatalf("scheduler worker units %d != shard units %d", workerUnits, shardUnits)
	}
	if st.Digest != sess.Digest() || st.InFlight != 0 {
		t.Fatalf("stats digest/inflight: %q / %d", st.Digest, st.InFlight)
	}

	// /metrics renders the same figures in Prometheus text form.
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(metrics), "lbe_queries_searched_total 1") ||
		!strings.Contains(string(metrics), `lbe_shard_work_units_total{shard="1"}`) {
		t.Fatalf("metrics endpoint: status %d\n%s", resp.StatusCode, metrics)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: status %d, want 503", resp.StatusCode)
	}
}

// TestRequestTimeout asserts the per-request deadline turns a stuck
// search into a 504 for the caller.
func TestRequestTimeout(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 1)
	srv := New(sess, c.Peptides, Config{
		BatchSize:      1,
		FlushInterval:  time.Millisecond,
		RequestTimeout: 50 * time.Millisecond,
	})
	defer srv.Close()
	srv.searchFn = func(ctx context.Context, qs []spectrum.Experimental) (*engine.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postSearch(t, ts.Client(), ts.URL, toWire(c.Queries[0]))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}
