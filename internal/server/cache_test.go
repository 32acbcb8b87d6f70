package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/oracle"
	"lbe/internal/spectrum"
)

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCacheCollapsesConcurrentDuplicates parks the engine under the
// first request for a spectrum and releases it only after N duplicates
// are waiting: the engine must see the query exactly once.
func TestCacheCollapsesConcurrentDuplicates(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 2)
	srv := New(sess, c.Peptides, Config{
		BatchSize: 8, FlushInterval: time.Millisecond, CacheBytes: 8 << 20,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	var engineQueries atomic.Int64
	srv.searchFn = func(ctx context.Context, qs []spectrum.Experimental) (*engine.Result, error) {
		engineQueries.Add(int64(len(qs)))
		entered <- struct{}{}
		<-gate
		return sess.Search(ctx, qs)
	}

	const dup = 6
	results := make(chan []byte, dup)
	errs := make(chan error, dup)
	post := func() {
		resp, body := postSearch(t, ts.Client(), ts.URL, toWire(c.Queries[0]))
		if resp.StatusCode != 200 {
			errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
			return
		}
		results <- body
	}
	go post()
	<-entered // the leader's batch is parked in the engine
	for i := 1; i < dup; i++ {
		go post()
	}
	waitUntil(t, "duplicates to collapse", func() bool {
		return srv.Stats().Cache.Collapsed == dup-1
	})
	close(gate)

	var first []byte
	for i := 0; i < dup; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case body := <-results:
			if first == nil {
				first = body
			} else if !bytes.Equal(first, body) {
				t.Fatal("collapsed duplicates received different responses")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for responses")
		}
	}
	if n := engineQueries.Load(); n != 1 {
		t.Fatalf("engine saw %d queries for %d duplicate requests, want 1", n, dup)
	}
}

// TestCacheAbortedLeaderDoesNotPoison fails the first computation of a
// key while a duplicate waits: the waiter must retry and succeed, the
// failure must not be cached, and a later request must hit the good
// entry.
func TestCacheAbortedLeaderDoesNotPoison(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 2)
	srv := New(sess, c.Peptides, Config{
		BatchSize: 8, FlushInterval: time.Millisecond, CacheBytes: 8 << 20,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	var calls atomic.Int64
	srv.searchFn = func(ctx context.Context, qs []spectrum.Experimental) (*engine.Result, error) {
		if calls.Add(1) == 1 {
			<-gate
			return nil, errors.New("injected engine failure")
		}
		return sess.Search(ctx, qs)
	}

	leaderDone := make(chan string, 1)
	go func() {
		resp, body := postSearch(t, ts.Client(), ts.URL, toWire(c.Queries[0]))
		leaderDone <- fmt.Sprintf("%d %s", resp.StatusCode, body)
	}()
	waitUntil(t, "leader to reach the engine", func() bool { return calls.Load() == 1 })

	waiterDone := make(chan error, 1)
	var waiterBody []byte
	go func() {
		resp, body := postSearch(t, ts.Client(), ts.URL, toWire(c.Queries[0]))
		if resp.StatusCode != 200 {
			waiterDone <- fmt.Errorf("waiter after aborted leader: status %d: %s", resp.StatusCode, body)
			return
		}
		waiterBody = body
		waiterDone <- nil
	}()
	waitUntil(t, "waiter to collapse onto the flight", func() bool {
		return srv.Stats().Cache.Collapsed == 1
	})
	close(gate)

	if got := <-leaderDone; !strings.Contains(got, "500") || !strings.Contains(got, "injected engine failure") {
		t.Fatalf("leader reply = %s, want the injected 500", got)
	}
	if err := <-waiterDone; err != nil {
		t.Fatal(err)
	}

	// The retry's answer — not the failure — is what got cached.
	resp, body := postSearch(t, ts.Client(), ts.URL, toWire(c.Queries[0]))
	if resp.StatusCode != 200 {
		t.Fatalf("post-retry request: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, waiterBody) {
		t.Fatal("cached entry differs from the successful retry's response")
	}
	cs := srv.Stats().Cache
	if cs.Hits == 0 || cs.Entries != 1 {
		t.Fatalf("expected one clean cached entry serving hits, got %+v", cs)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("engine called %d times, want 2 (failed leader + waiter retry)", n)
	}
}

// TestCacheStatsAndMetricsSurface checks the counter block on /stats and
// /metrics, and its absence when caching is disabled.
func TestCacheStatsAndMetricsSurface(t *testing.T) {
	c := oracle.Generated(t)
	sess := testSession(t, c, 2)
	srv := New(sess, c.Peptides, Config{
		BatchSize: 8, FlushInterval: time.Millisecond, CacheBytes: 4 << 20,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ { // miss then hit
		if resp, body := postSearch(t, ts.Client(), ts.URL, toWire(c.Queries[0])); resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	httpGet := func(path string) []byte {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(res.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var st api.StatsResponse
	if err := json.Unmarshal(httpGet("/stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("/stats has no cache block on a cache-enabled server")
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("cache block %+v, want 1 hit / 1 miss / 1 entry", st.Cache)
	}
	if st.Cache.ResidentBytes <= 0 || st.Cache.CapacityBytes != 4<<20 {
		t.Fatalf("cache gauges %+v", st.Cache)
	}

	metrics := string(httpGet("/metrics"))
	for _, want := range []string{
		"lbe_cache_hits_total 1", "lbe_cache_misses_total 1",
		"lbe_cache_evictions_total", "lbe_cache_singleflight_collapsed_total",
		"lbe_cache_invalidated_total", "lbe_cache_entries 1",
		"lbe_cache_resident_bytes", "lbe_cache_capacity_bytes",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Disabled cache: no block, no metric names.
	off := New(sess, c.Peptides, Config{BatchSize: 8, FlushInterval: time.Millisecond})
	defer off.Close()
	if off.Stats().Cache != nil {
		t.Fatal("cache-disabled server reports cache stats")
	}
	if strings.Contains(string(api.FormatMetrics(&api.StatsResponse{})), "lbe_cache_") {
		t.Fatal("cache metrics rendered without a cache block")
	}
}
