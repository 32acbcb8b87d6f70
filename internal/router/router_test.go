package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"lbe/internal/api"
	"lbe/internal/oracle"
)

func testRouter(t *testing.T, cfg Config, urls ...string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rt.Close(); ts.Close() })
	return rt, ts
}

// fastProbes returns a Config tuned for tests: quick probes, generous
// staleness.
func fastProbes() Config {
	return Config{
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    2 * time.Second,
		RequestTimeout:  30 * time.Second,
		FailoverRetries: 1,
		StatsStaleAfter: time.Hour,
	}
}

// TestRouterSurvivesReplicaKill drives the generated corpus through
// three replicas while one is torn down abruptly mid-run: every reply is
// still a 200 holding the bytes of the store's answer, via failover.
func TestRouterSurvivesReplicaKill(t *testing.T) {
	cl := newCluster(t, oracle.Cell{Corpus: oracle.Generated(t), Shape: oracle.Shapes[1]})
	r1 := startReplicaDir(t, cl.whole, 0)
	r2 := startReplicaDir(t, cl.whole, 0)
	r3 := startReplicaDir(t, cl.whole, 0)
	rt, ts := testRouter(t, fastProbes(), r1.ts.URL, r2.ts.URL, r3.ts.URL)
	drive(t, ts.URL, cl, 1, r3.kill)

	// The dead replica must be marked down by a probe shortly after.
	waitFor(t, func() bool {
		st := rt.Stats()
		return !st.Replicas[2].Healthy
	}, "killed replica never marked down")
	st := rt.Stats()
	if st.Replicas[0].Routed+st.Replicas[1].Routed+st.Replicas[2].Routed < int64(len(cl.Corpus.Queries)) {
		t.Fatalf("replica routed counts do not cover the run: %+v", st.Replicas)
	}

	// The cluster still serves with one replica gone.
	if _, err := post(ts.URL, cl.Corpus.Queries[:1]); err != nil {
		t.Fatalf("post-kill request: %v", err)
	}
}

// fakeReplica is a scripted stand-in exposing the probe surface without
// an engine behind it.
type fakeReplica struct {
	digest    string
	queueLen  int64
	withStats bool
	searches  atomic.Int64
	ts        *httptest.Server
}

func startFake(t *testing.T, digest string, queueLen int, withStats bool) *fakeReplica {
	t.Helper()
	f := &fakeReplica{digest: digest, queueLen: int64(queueLen), withStats: withStats}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.HealthResponse{Status: "ok", Shards: 1, Digest: f.digest})
	})
	if withStats {
		mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
			api.WriteJSON(w, http.StatusOK, api.StatsResponse{
				Status: "ok", Digest: f.digest, QueueLen: int(atomic.LoadInt64(&f.queueLen)),
			})
		})
	}
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		f.searches.Add(1)
		api.WriteJSON(w, http.StatusOK, api.SearchResponse{})
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

var searchBody = []byte(`{"spectra":[{"precursor_mz":500.3,"peaks":[[147.11,1.0]]}]}`)

func postBody(t *testing.T, client *http.Client, base string) int {
	t.Helper()
	resp, err := client.Post(base+"/search", "application/json", bytes.NewReader(searchBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestConsistencyGateExcludesMismatchedDigest: a healthy replica serving
// a different store must not receive traffic, and must be flagged.
func TestConsistencyGateExcludesMismatchedDigest(t *testing.T) {
	a := startFake(t, "digest-a", 0, true)
	b := startFake(t, "digest-b", 0, true)
	rt, ts := testRouter(t, fastProbes(), a.ts.URL, b.ts.URL)

	for i := 0; i < 6; i++ {
		if status := postBody(t, ts.Client(), ts.URL); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	if got := b.searches.Load(); got != 0 {
		t.Fatalf("mismatched replica served %d requests; the gate must exclude it", got)
	}
	if got := a.searches.Load(); got != 6 {
		t.Fatalf("consistent replica served %d of 6 requests", got)
	}

	st := rt.Stats()
	if st.Digest != "digest-a" {
		t.Fatalf("cluster digest %q, want the lowest-indexed healthy replica's", st.Digest)
	}
	if !st.Replicas[1].DigestMismatch || st.Replicas[1].Routed != 0 {
		t.Fatalf("mismatch not surfaced in stats: %+v", st.Replicas[1])
	}

	// The healthz view stays ok (one consistent replica remains).
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with one consistent replica: %d", resp.StatusCode)
	}
}

// TestLeastLoadedDispatch: with fresh stats, traffic goes to the replica
// reporting the smaller load.
func TestLeastLoadedDispatch(t *testing.T) {
	busy := startFake(t, "d", 50, true)
	idle := startFake(t, "d", 0, true)
	_, ts := testRouter(t, fastProbes(), busy.ts.URL, idle.ts.URL)

	for i := 0; i < 8; i++ {
		if status := postBody(t, ts.Client(), ts.URL); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	if got := idle.searches.Load(); got != 8 {
		t.Fatalf("idle replica served %d of 8; busy served %d — dispatch is not least-loaded",
			got, busy.searches.Load())
	}
}

// TestRoundRobinWhenStatsStale: replicas that never produce a load
// snapshot are dispatched round-robin instead of starving.
func TestRoundRobinWhenStatsStale(t *testing.T) {
	a := startFake(t, "d", 0, false)
	b := startFake(t, "d", 0, false)
	_, ts := testRouter(t, fastProbes(), a.ts.URL, b.ts.URL)

	for i := 0; i < 8; i++ {
		if status := postBody(t, ts.Client(), ts.URL); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	if a.searches.Load() != 4 || b.searches.Load() != 4 {
		t.Fatalf("stale-stats dispatch is not round-robin: %d / %d",
			a.searches.Load(), b.searches.Load())
	}
}

// TestRouterRejectsWithoutReplicas: with every replica down, /search
// answers 503 and /healthz flips.
func TestRouterRejectsWithoutReplicas(t *testing.T) {
	dead := startFake(t, "d", 0, true)
	dead.ts.Close()
	rt, ts := testRouter(t, fastProbes(), dead.ts.URL)

	if status := postBody(t, ts.Client(), ts.URL); status != http.StatusServiceUnavailable {
		t.Fatalf("search with no replica: status %d, want 503", status)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "unavailable" {
		t.Fatalf("healthz with no replica: %d %+v", resp.StatusCode, h)
	}
	if st := rt.Stats(); st.RejectedNoReplica != 1 {
		t.Fatalf("no-replica rejection not counted: %+v", st)
	}
}

// TestRouterDrain: Shutdown answers requests already in flight, rejects
// new ones with 503, and returns once the last one is done.
func TestRouterDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.HealthResponse{Status: "ok", Digest: "d"})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.StatsResponse{Status: "ok"})
	})
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		api.WriteJSON(w, http.StatusOK, api.SearchResponse{})
	})
	slow := httptest.NewServer(mux)
	defer slow.Close()
	rt, ts := testRouter(t, fastProbes(), slow.URL)

	codes := make(chan int, 1)
	go func() { codes <- postBody(t, ts.Client(), ts.URL) }()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached the replica")
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- rt.Shutdown(ctx)
	}()
	waitFor(t, rt.isDraining, "router never started draining")

	if status := postBody(t, ts.Client(), ts.URL); status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", status)
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	if st := rt.Stats(); st.Status != "draining" || st.RejectedDrain == 0 {
		t.Fatalf("drain not reflected in stats: %+v", st)
	}
}

// TestRouterMetricsAggregate: /metrics on the router renders the
// aggregate and per-replica figures.
func TestRouterMetricsAggregate(t *testing.T) {
	a := startFake(t, "d", 3, true)
	b := startFake(t, "d", 4, true)
	_, ts := testRouter(t, fastProbes(), a.ts.URL, b.ts.URL)

	if status := postBody(t, ts.Client(), ts.URL); status != http.StatusOK {
		t.Fatalf("search: %d", status)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %v", resp.StatusCode, err)
	}
	text := string(data)
	for _, want := range []string{
		"lbe_queue_len 7", // 3 + 4, aggregated
		"lbe_router_requests_routed_total 1",
		fmt.Sprintf("lbe_router_replica_up{replica=%q} 1", a.ts.URL),
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("router metrics missing %q:\n%s", want, text)
		}
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

// TestClientCancelDoesNotMarkReplicaDown: a caller hanging up mid-proxy
// is the caller's failure, not the replica's — one impatient client
// must not take a healthy replica (or a whole single-replica cluster)
// out of rotation until the next probe.
func TestClientCancelDoesNotMarkReplicaDown(t *testing.T) {
	var park atomic.Bool
	park.Store(true)
	started := make(chan struct{}, 8)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.HealthResponse{Status: "ok", Digest: "d"})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.StatsResponse{Status: "ok"})
	})
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read can detect the
		// peer abandoning the request and cancel r.Context().
		io.Copy(io.Discard, r.Body)
		started <- struct{}{}
		if park.Load() {
			<-r.Context().Done() // hold until the caller gives up
			return
		}
		api.WriteJSON(w, http.StatusOK, api.SearchResponse{})
	})
	slow := httptest.NewServer(mux)
	defer slow.Close()

	cfg := fastProbes()
	cfg.ProbeInterval = time.Hour // no probe gets a chance to repair state
	rt, ts := testRouter(t, cfg, slow.URL)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", bytes.NewReader(searchBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the replica")
	}
	cancel()
	<-done

	if st := rt.Stats(); !st.Replicas[0].Healthy || st.Replicas[0].Failed != 0 {
		t.Fatalf("caller cancellation was blamed on the replica: %+v", st.Replicas[0])
	}
	// And the replica still serves the next request.
	park.Store(false)
	if code := postBody(t, ts.Client(), ts.URL); code != http.StatusOK {
		t.Fatalf("follow-up request after cancel answered %d", code)
	}
}

// TestRouterRelaysFinalRetryableReply: when every failover attempt is
// spent and the last attempt got a real reply (a replica's 429
// backpressure here), the router relays that status and body instead of
// masking it behind a synthesized 502 — backoff-aware clients keep their
// Retry-After semantics.
func TestRouterRelaysFinalRetryableReply(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.HealthResponse{Status: "ok", Digest: "d"})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.StatsResponse{Status: "ok"})
	})
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusTooManyRequests, "admission queue full, retry later")
	})
	full := httptest.NewServer(mux)
	defer full.Close()
	rt, ts := testRouter(t, fastProbes(), full.URL)

	resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("router answered %d, want the replica's 429 relayed; body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("relayed 429 lost its Retry-After header")
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error != "admission queue full, retry later" {
		t.Fatalf("relayed body is not the replica's: %s", data)
	}
	if st := rt.Stats(); !st.Replicas[0].Healthy {
		t.Fatal("a 429 must not mark the replica down")
	}
}

// TestRouterOversizedBodyIs413: a body past MaxBodyBytes is refused at
// the router with 413, as a replica refuses it, and never forwarded.
func TestRouterOversizedBodyIs413(t *testing.T) {
	f := startFake(t, "d", 0, true)
	cfg := fastProbes()
	cfg.MaxBodyBytes = 4096
	_, ts := testRouter(t, cfg, f.ts.URL)

	// Valid JSON padded past the limit: only the limit can refuse it.
	padded := append(append([]byte(nil), searchBody...), bytes.Repeat([]byte(" "), 5000)...)
	resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body over a 4096-byte limit: status %d, want 413; body %s", len(padded), resp.StatusCode, data)
	}
	if got := f.searches.Load(); got != 0 {
		t.Fatalf("an oversized body reached the replica %d times", got)
	}
	if status := postBody(t, ts.Client(), ts.URL); status != http.StatusOK {
		t.Fatalf("a body within the limit: status %d", status)
	}
}
