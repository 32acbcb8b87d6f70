package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lbe/internal/spectrum"
)

func testClient(ts *httptest.Server, retries int) *Client {
	c := New(ts.URL)
	c.HTTPClient = ts.Client()
	c.Retries = retries
	c.RetryBackoff = time.Millisecond
	return c
}

// TestSpectrumRoundTrip: engine query -> wire -> engine query is the
// identity on the searched fields.
func TestSpectrumRoundTrip(t *testing.T) {
	e := spectrum.Experimental{
		Scan:        7,
		PrecursorMZ: 512.77,
		Charge:      2,
		Peaks:       []spectrum.Peak{{MZ: 147.11, Intensity: 1}, {MZ: 262.14, Intensity: 0.5}},
	}
	back, err := FromExperimental(e).Experimental()
	if err != nil {
		t.Fatal(err)
	}
	if back.Scan != e.Scan || back.PrecursorMZ != e.PrecursorMZ || back.Charge != e.Charge ||
		len(back.Peaks) != len(e.Peaks) || back.Peaks[0] != e.Peaks[0] || back.Peaks[1] != e.Peaks[1] {
		t.Fatalf("round trip changed the spectrum: %+v -> %+v", e, back)
	}

	// Unsorted peaks arrive sorted; invalid spectra are rejected.
	sj := SpectrumJSON{PrecursorMZ: 500, Peaks: [][2]float64{{300, 1}, {100, 2}}}
	exp, err := sj.Experimental()
	if err != nil {
		t.Fatal(err)
	}
	if exp.Peaks[0].MZ != 100 {
		t.Fatalf("peaks not sorted: %+v", exp.Peaks)
	}
	if _, err := (SpectrumJSON{PrecursorMZ: -5, Peaks: [][2]float64{{100, 1}}}).Experimental(); err == nil {
		t.Fatal("invalid spectrum passed validation")
	}
}

// TestClientRetriesTransientFailures: 503s burn retry attempts, then a
// 200 goes through; the attempt count is bounded.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			WriteError(w, http.StatusServiceUnavailable, "warming up")
			return
		}
		WriteJSON(w, http.StatusOK, SearchResponse{Results: []QueryResult{{Scan: 1}}})
	}))
	defer ts.Close()

	c := testClient(ts, 2)
	sr, err := c.SearchSpectra(context.Background(), SpectrumJSON{PrecursorMZ: 500, Peaks: [][2]float64{{100, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 1 || sr.Results[0].Scan != 1 {
		t.Fatalf("unexpected response: %+v", sr)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestClientRetryBudgetBounded: a persistent 503 surfaces as a
// StatusError after exactly 1+Retries attempts; a 400 is never retried.
func TestClientRetryBudgetBounded(t *testing.T) {
	var calls atomic.Int64
	status := int32(http.StatusServiceUnavailable)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, int(atomic.LoadInt32(&status)), "nope")
	}))
	defer ts.Close()

	c := testClient(ts, 2)
	_, err := c.Stats(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("want StatusError 503, got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}

	calls.Store(0)
	atomic.StoreInt32(&status, http.StatusBadRequest)
	_, err = c.SearchSpectra(context.Background(), SpectrumJSON{PrecursorMZ: 500, Peaks: [][2]float64{{100, 1}}})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("want StatusError 400, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("client retried a 400: %d attempts", got)
	}
}

// TestHealthDecodesDraining: a 503 carrying a HealthResponse body (the
// draining server) decodes instead of erroring, so probers can tell
// draining from dead — and it is accepted as final on the first attempt
// instead of burning the retry budget on a correct answer.
func TestHealthDecodesDraining(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining", Shards: 2, Digest: "abc"})
	}))
	defer ts.Close()

	c := testClient(ts, 2)
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || h.Digest != "abc" {
		t.Fatalf("unexpected health: %+v", h)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("draining health burned %d attempts, want 1", got)
	}

	// A 503 that is not a health body still retries, then errors.
	calls.Store(0)
	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusServiceUnavailable, "not health")
	}))
	defer bare.Close()
	cb := testClient(bare, 2)
	var se *StatusError
	if _, err := cb.Health(context.Background()); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("want StatusError 503, got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("non-health 503 saw %d attempts, want 3", got)
	}
}

// TestClientHonorsContext: an expired caller context cuts the retry loop
// short.
func TestClientHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusServiceUnavailable, "busy")
	}))
	defer ts.Close()

	c := testClient(ts, 1000)
	c.RetryBackoff = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Stats(ctx)
	if err == nil {
		t.Fatal("expected an error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop outlived its context: %v", elapsed)
	}
}

// TestFormatMetrics spot-checks the Prometheus exposition rendering.
func TestFormatMetrics(t *testing.T) {
	st := StatsResponse{
		Status:   "ok",
		Shards:   2,
		Searched: 42,
		QueueLen: 3,
		PerShard: []ShardStatsJSON{{Rank: 0, WorkUnits: 10}, {Rank: 1, WorkUnits: 20}},
		Scheduler: SchedulerStatsJSON{
			ChunkSize: 4,
			PerWorker: []WorkerStatsJSON{{Worker: 0, WorkUnits: 30}},
		},
	}
	text := string(FormatMetrics(&st))
	for _, want := range []string{
		"# HELP lbe_queries_searched_total",
		"# TYPE lbe_queries_searched_total counter",
		"lbe_queries_searched_total 42",
		"lbe_draining 0",
		"lbe_queue_len 3",
		`lbe_shard_work_units_total{shard="1"} 20`,
		`lbe_worker_work_units_total{worker="0"} 30`,
		"lbe_sched_chunk_size 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	rt := RouterStatsResponse{
		Status:    "ok",
		Routed:    7,
		Failovers: 1,
		Replicas: []RouterReplicaJSON{
			{URL: "http://a", Healthy: true, Routed: 5},
			{URL: "http://b", Healthy: false, DigestMismatch: true},
		},
		Aggregate: st,
	}
	text = string(FormatRouterMetrics(&rt))
	for _, want := range []string{
		"lbe_router_requests_routed_total 7",
		"lbe_router_failovers_total 1",
		`lbe_router_replica_up{replica="http://a"} 1`,
		`lbe_router_replica_up{replica="http://b"} 0`,
		`lbe_router_replica_consistent{replica="http://b"} 0`,
		"lbe_queries_searched_total 42",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router metrics missing %q:\n%s", want, text)
		}
	}
}

// TestReadBody: a body read whole, whatever its declared length says —
// exact, short, long, unknown, or past what is trusted up front — and in
// one allocation when the declaration holds.
func TestReadBody(t *testing.T) {
	body := strings.Repeat("0123456789abcdef", 100)
	for _, size := range []int64{int64(len(body)), 10, 5000, -1, maxPresize + 1} {
		got, err := ReadBody(strings.NewReader(body), size)
		if err != nil || string(got) != body {
			t.Fatalf("declared %d: read %d bytes, %v", size, len(got), err)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := ReadBody(strings.NewReader(body), int64(len(body))); err != nil {
			t.Fatal(err)
		}
	}); n != 2 { // the buffer, and the strings.Reader
		t.Errorf("ReadBody of a body of its declared length allocates %.0f times, want 2", n)
	}
}
