package router

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/oracle"
)

// startSetReplicas boots count replicas per shard-set of the given
// cluster and returns them with their URLs in set-major order.
func startSetReplicas(t *testing.T, dir string, sets, count int) ([]*testReplica, []string) {
	t.Helper()
	var reps []*testReplica
	var urls []string
	for s := 0; s < sets; s++ {
		for i := 0; i < count; i++ {
			rep := startReplicaDir(t, filepath.Join(dir, fmt.Sprintf("set-%02d", s)), 0)
			reps = append(reps, rep)
			urls = append(urls, rep.ts.URL)
		}
	}
	return reps, urls
}

// TestOneSetRelaysVerbatim: one set means relay, not merge — a 200 body
// that is valid but not canonical JSON comes back byte for byte, so
// nothing re-encoded it.
func TestOneSetRelaysVerbatim(t *testing.T) {
	odd := []byte("{ \"results\" : [ { \"scan\":7, \"psms\":[ ] } ] }\n\n")
	holder := startScatterFake(t, 0, 1, "dig-one", 0, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(odd)
	})
	_, ts := testRouter(t, fastProbes(), holder.ts.URL)
	resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, odd) {
		t.Fatalf("one-set reply was not relayed verbatim: %d %q, want %q", resp.StatusCode, data, odd)
	}
}

// TestScatterSurvivesHolderKill drives the generated corpus through two
// holders per shard-set while one set-0 holder is torn down abruptly
// mid-run: every reply is still a 200 holding the bytes of the
// whole-store answer, via failover to the set's other holder.
func TestScatterSurvivesHolderKill(t *testing.T) {
	cl := newCluster(t, oracle.Cell{Corpus: oracle.Generated(t), Shape: oracle.Shapes[1]})
	reps, urls := startSetReplicas(t, cl.sets[2], 2, 2)
	rt, ts := testRouter(t, fastProbes(), urls...)
	drive(t, ts.URL, cl, 1, reps[0].kill)

	waitFor(t, func() bool {
		st := rt.Stats()
		return !st.Replicas[0].Healthy
	}, "killed holder never marked down")

	// The partition still has every set covered and keeps serving.
	if _, err := post(ts.URL, cl.Corpus.Queries[:1]); err != nil {
		t.Fatalf("post-kill request: %v", err)
	}
	st := rt.Stats()
	if st.Scatter == nil || st.Scatter.Covered != 2 {
		t.Fatalf("coverage lost after replica failover: %+v", st.Scatter)
	}
	if st.Digest == "" {
		t.Fatal("cluster digest dropped while every set stayed covered")
	}
}

// scatterFake is a scripted shard-set holder exposing the probe surface
// without an engine behind it. It counts the connections opened to it and
// closed.
type scatterFake struct {
	searches atomic.Int64
	opened   atomic.Int64
	closed   atomic.Int64
	ts       *httptest.Server
}

func startScatterFake(t testing.TB, set, sets int, dig string, queueLen int, search http.HandlerFunc) *scatterFake {
	t.Helper()
	f := &scatterFake{}
	ss := &api.ShardSetJSON{Set: set, Sets: sets, TotalShards: sets, TopK: 5}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.HealthResponse{Status: "ok", Shards: 1, Digest: dig, ShardSet: ss})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.StatsResponse{Status: "ok", Digest: dig, QueueLen: queueLen, ShardSet: ss})
	})
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		f.searches.Add(1)
		search(w, r)
	})
	f.ts = httptest.NewUnstartedServer(mux)
	f.ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			f.opened.Add(1)
		case http.StateClosed, http.StateHijacked:
			f.closed.Add(1)
		}
	}
	f.ts.Start()
	t.Cleanup(f.ts.Close)
	return f
}

// okSet scripts a holder answering every query with the given PSMs.
func okSet(psms ...api.PSMJSON) http.HandlerFunc {
	if psms == nil {
		psms = []api.PSMJSON{}
	}
	return replySet(api.QueryResult{Scan: 0, PSMs: psms})
}

// replySet scripts a holder answering every request with these results,
// whatever it was asked.
func replySet(results ...api.QueryResult) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.SearchResponse{Results: results})
	}
}

// failSet scripts a holder answering every query with an error status.
func failSet(status int, msg string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, status, "%s", msg)
	}
}

// hangSet scripts a holder that never answers: it holds the request
// until the router's per-attempt deadline closes the connection.
func hangSet(w http.ResponseWriter, r *http.Request) {
	// Drain the body so the server's background read can detect the
	// router abandoning the request and cancel r.Context().
	io.Copy(io.Discard, r.Body)
	<-r.Context().Done()
}

// TestScatterPartialFailureTable drives the reply policy through its
// partial-failure paths with scripted holders: an uncovered set, a
// holder failing over within its set, a final retryable reply, a
// definitive client error, duplicate and empty per-set results, an
// undecodable body, a holder outliving the per-attempt deadline, and
// holders whose 200 replies cannot be merged: a list out of ComparePSM
// order (in the first result or a later one), result counts that differ
// (a set answering long or short, or one of three overrunning), scans
// that disagree.
// Rows marked oneSetToo put their faulty holder on set 0 and run a
// second time as a one-set topology (only the set-0 holders, announcing
// {0 of 1}): the one loop must answer alike on both shapes.
func TestScatterPartialFailureTable(t *testing.T) {
	psmHi := api.PSMJSON{Peptide: 2, Sequence: "HIK", Score: 9, Shared: 3, Precursor: 500.25, Shard: 0}
	psmLo := api.PSMJSON{Peptide: 7, Sequence: "LOK", Score: 4, Shared: 2, Precursor: 501.5, Shard: 1}

	type holder struct {
		set      int
		queueLen int
		search   http.HandlerFunc
	}
	cases := []struct {
		name           string
		holders        []holder
		wantStatus     int
		wantBody       string // exact body (trimmed) when non-empty
		wantContains   string // substring expectation otherwise
		wantSetDown    int64
		wantRouted     int64 // requests_routed: holder replies that stand (200, relayed 4xx)
		wantFailovers  bool
		wantRetryAfter bool
		requestTimeout time.Duration // per-attempt deadline; 0 keeps fastProbes'
		sets           int           // shard sets in the topology; 0 means 2
		oneSetToo      bool
	}{
		{
			name:         "uncovered shard-set fails explicitly",
			holders:      []holder{{set: 0, search: okSet(psmHi)}},
			wantStatus:   http.StatusServiceUnavailable,
			wantContains: "shard-set 1",
			wantSetDown:  1,
		},
		{
			name: "holder timeout mid-gather fails over within the set",
			holders: []holder{
				{set: 0, queueLen: 0, search: failSet(http.StatusServiceUnavailable, "draining")},
				{set: 0, queueLen: 5, search: okSet(psmHi)},
				{set: 1, search: okSet(psmLo)},
			},
			wantStatus: http.StatusOK,
			wantBody: `{"results":[{"scan":0,"psms":[` +
				`{"peptide":2,"sequence":"HIK","score":9,"shared":3,"precursor":500.25,"shard":0},` +
				`{"peptide":7,"sequence":"LOK","score":4,"shared":2,"precursor":501.5,"shard":1}]}]}`,
			wantRouted:    1,
			wantFailovers: true,
		},
		{
			name: "final retryable reply relayed verbatim",
			holders: []holder{
				{set: 0, search: okSet(psmHi)},
				{set: 1, search: failSet(http.StatusTooManyRequests, "admission queue full")},
			},
			wantStatus:     http.StatusTooManyRequests,
			wantContains:   "admission queue full",
			wantRetryAfter: true,
		},
		{
			name: "definitive client error relayed verbatim",
			holders: []holder{
				{set: 0, search: okSet(psmHi)},
				{set: 1, search: failSet(http.StatusBadRequest, "spectrum 0: no peaks")},
			},
			wantStatus:   http.StatusBadRequest,
			wantContains: "spectrum 0: no peaks",
			wantRouted:   1,
		},
		{
			name: "duplicate rows from two sets merge deterministically",
			holders: []holder{
				{set: 0, search: okSet(psmHi)},
				{set: 1, search: okSet(psmHi)},
			},
			wantStatus: http.StatusOK,
			wantBody: `{"results":[{"scan":0,"psms":[` +
				`{"peptide":2,"sequence":"HIK","score":9,"shared":3,"precursor":500.25,"shard":0},` +
				`{"peptide":2,"sequence":"HIK","score":9,"shared":3,"precursor":500.25,"shard":0}]}]}`,
			wantRouted: 1,
		},
		{
			name: "empty shard-set results merge to an empty array",
			holders: []holder{
				{set: 0, search: okSet()},
				{set: 1, search: okSet()},
			},
			wantStatus: http.StatusOK,
			wantBody:   `{"results":[{"scan":0,"psms":[]}]}`,
			wantRouted: 1,
		},
		{
			name: "undecodable holder body is a gateway error",
			holders: []holder{
				{set: 0, search: okSet(psmHi)},
				{set: 1, search: func(w http.ResponseWriter, r *http.Request) {
					w.WriteHeader(http.StatusOK)
					io.WriteString(w, "not json")
				}},
			},
			wantStatus:   http.StatusBadGateway,
			wantContains: "undecodable",
		},
		{
			name: "attempt outliving the per-attempt deadline is a gateway timeout",
			holders: []holder{
				{set: 0, search: hangSet},
				{set: 1, search: okSet(psmLo)},
			},
			requestTimeout: 50 * time.Millisecond,
			wantStatus:     http.StatusGatewayTimeout,
			wantContains:   "deadline exceeded",
			oneSetToo:      true,
		},
		{
			name: "out-of-order holder list is a gateway error",
			holders: []holder{
				{set: 0, search: okSet(psmHi)},
				{set: 1, search: okSet(psmLo, psmHi)},
			},
			wantStatus:   http.StatusBadGateway,
			wantContains: "ComparePSM order",
		},
		{
			name: "different result counts are a gateway error",
			holders: []holder{
				{set: 0, search: okSet(psmHi)},
				{set: 1, search: replySet(
					api.QueryResult{Scan: 0, PSMs: []api.PSMJSON{psmLo}},
					api.QueryResult{Scan: 1, PSMs: []api.PSMJSON{}})},
			},
			wantStatus:   http.StatusBadGateway,
			wantContains: "gather: api: merge: response 1 has 2 results, response 0 has 1",
		},
		{
			name: "out-of-order list in a later result is a gateway error",
			holders: []holder{
				{set: 0, search: replySet(
					api.QueryResult{Scan: 0, PSMs: []api.PSMJSON{psmHi}},
					api.QueryResult{Scan: 1, PSMs: []api.PSMJSON{psmHi}})},
				{set: 1, search: replySet(
					api.QueryResult{Scan: 0, PSMs: []api.PSMJSON{psmLo}},
					api.QueryResult{Scan: 1, PSMs: []api.PSMJSON{psmLo, psmHi}})},
			},
			wantStatus:   http.StatusBadGateway,
			wantContains: "result 1 of response 1 is not in engine.ComparePSM order",
		},
		{
			name: "a set answering short is a gateway error",
			holders: []holder{
				{set: 0, search: okSet(psmHi)},
				{set: 1, search: replySet()},
			},
			wantStatus:   http.StatusBadGateway,
			wantContains: "gather: api: merge: response 1 has 0 results, response 0 has 1",
		},
		{
			name: "one of three sets overrunning is a gateway error",
			holders: []holder{
				{set: 0, search: okSet(psmHi)},
				{set: 1, search: replySet(
					api.QueryResult{Scan: 0, PSMs: []api.PSMJSON{psmLo}},
					api.QueryResult{Scan: 1, PSMs: []api.PSMJSON{}})},
				{set: 2, search: okSet(psmLo)},
			},
			sets:         3,
			wantStatus:   http.StatusBadGateway,
			wantContains: "gather: api: merge: response 1 has 2 results, response 0 has 1",
		},
		{
			name: "holders disagreeing on a scan is a gateway error",
			holders: []holder{
				{set: 0, search: okSet(psmHi)},
				{set: 1, search: replySet(api.QueryResult{Scan: 3, PSMs: []api.PSMJSON{psmLo}})},
			},
			wantStatus:   http.StatusBadGateway,
			wantContains: "gather: api: merge: result 0 scan 3 in response 1",
		},
		{
			name: "relayed client error counts as routed",
			holders: []holder{
				{set: 0, search: failSet(http.StatusBadRequest, "spectrum 0: no peaks")},
				{set: 1, search: okSet(psmLo)},
			},
			wantStatus:   http.StatusBadRequest,
			wantContains: "spectrum 0: no peaks",
			wantRouted:   1,
			oneSetToo:    true,
		},
	}
	for _, tc := range cases {
		full := tc.sets
		if full == 0 {
			full = 2
		}
		for _, sets := range []int{full, 1} {
			name := tc.name
			if sets == 1 {
				if !tc.oneSetToo {
					continue
				}
				name += " (one set)"
			}
			t.Run(name, func(t *testing.T) {
				var urls []string
				for _, h := range tc.holders {
					if h.set >= sets {
						continue
					}
					f := startScatterFake(t, h.set, sets, fmt.Sprintf("set-digest-%d", h.set), h.queueLen, h.search)
					urls = append(urls, f.ts.URL)
				}
				cfg := fastProbes()
				if tc.requestTimeout > 0 {
					cfg.RequestTimeout = tc.requestTimeout
				}
				rt, ts := testRouter(t, cfg, urls...)

				resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody))
				if err != nil {
					t.Fatal(err)
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.wantStatus {
					t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.wantStatus, data)
				}
				body := string(bytes.TrimSpace(data))
				if tc.wantBody != "" && body != tc.wantBody {
					t.Fatalf("body:\n got %s\nwant %s", body, tc.wantBody)
				}
				if tc.wantContains != "" && !bytes.Contains(data, []byte(tc.wantContains)) {
					t.Fatalf("body %s does not mention %q", data, tc.wantContains)
				}
				if tc.wantRetryAfter && resp.Header.Get("Retry-After") == "" {
					t.Error("relayed 429 lost its Retry-After header")
				}
				st := rt.Stats()
				if st.Scatter == nil {
					t.Fatal("scatter stats block missing")
				}
				if st.Scatter.RejectedSetDown != tc.wantSetDown {
					t.Fatalf("rejected_shard_set_down %d, want %d", st.Scatter.RejectedSetDown, tc.wantSetDown)
				}
				if st.Routed != tc.wantRouted {
					t.Fatalf("requests_routed %d, want %d", st.Routed, tc.wantRouted)
				}
				if tc.wantFailovers && st.Failovers == 0 {
					t.Fatal("expected an in-set failover to be counted")
				}
			})
		}
	}
}

// TestScatterGateExcludesNonconforming: within a set, holders
// disagreeing with the set's digest are gated; replicas announcing a
// different partition shape are gated; the composed digest reflects the
// adopted per-set digests.
func TestScatterGateExcludesNonconforming(t *testing.T) {
	good0 := startScatterFake(t, 0, 2, "dig-a", 0, okSet())
	stale0 := startScatterFake(t, 0, 2, "dig-old", 0, okSet())
	shape3 := startScatterFake(t, 1, 3, "dig-x", 0, okSet())
	good1 := startScatterFake(t, 1, 2, "dig-b", 0, okSet())
	rt, ts := testRouter(t, fastProbes(), good0.ts.URL, stale0.ts.URL, shape3.ts.URL, good1.ts.URL)

	for i := 0; i < 4; i++ {
		if status := postBody(t, ts.Client(), ts.URL); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	if got := stale0.searches.Load(); got != 0 {
		t.Fatalf("stale-digest holder served %d requests; the gate must exclude it", got)
	}
	if got := shape3.searches.Load(); got != 0 {
		t.Fatalf("wrong-shape holder served %d requests; the gate must exclude it", got)
	}

	st := rt.Stats()
	if !st.Replicas[1].DigestMismatch || !st.Replicas[2].DigestMismatch {
		t.Fatalf("gated holders not flagged: %+v", st.Replicas)
	}
	want := engine.ComposeClusterDigest([]string{"dig-a", "dig-b"})
	if st.Digest != want {
		t.Fatalf("cluster digest %q, want composition of the adopted set digests %q", st.Digest, want)
	}
	if st.Scatter == nil || st.Scatter.Covered != 2 ||
		st.Scatter.SetDigests[0] != "dig-a" || st.Scatter.SetDigests[1] != "dig-b" {
		t.Fatalf("scatter stats wrong: %+v", st.Scatter)
	}
}

// TestMixedRegistryNeverTruncates: a partial holder never answers for the
// whole database, whichever way a registry mixes shapes. The gate locks
// onto the lowest-indexed healthy replica's shape; listed first, the
// whole store serves alone; listed second, it is the one gated out and
// the half-covered partition refuses every query rather than answer
// from set 0 only.
func TestMixedRegistryNeverTruncates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		wholeFirst bool
	}{
		{"whole store first", true},
		{"partial holder first", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			partial := startScatterFake(t, 0, 2, "dig-a", 0, okSet())
			whole := startFake(t, "dig-w", 0, true)
			urls := []string{whole.ts.URL, partial.ts.URL}
			if !tc.wholeFirst {
				urls = []string{partial.ts.URL, whole.ts.URL}
			}
			rt, ts := testRouter(t, fastProbes(), urls...)

			wantStatus := http.StatusServiceUnavailable
			if tc.wholeFirst {
				wantStatus = http.StatusOK
			}
			for i := 0; i < 4; i++ {
				resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody))
				if err != nil {
					t.Fatal(err)
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != wantStatus {
					t.Fatalf("request %d: status %d, want %d; body %s", i, resp.StatusCode, wantStatus, data)
				}
				if !tc.wholeFirst && !bytes.Contains(data, []byte("shard-set 1")) {
					t.Fatalf("request %d: 503 does not name the uncovered set: %s", i, data)
				}
			}

			st := rt.Stats()
			if !st.Replicas[1].DigestMismatch || st.Replicas[0].DigestMismatch {
				t.Fatalf("the second-listed shape must be the one flagged: %+v", st.Replicas)
			}
			if st.Scatter == nil {
				t.Fatal("scatter stats block missing")
			}
			if tc.wholeFirst {
				if got := partial.searches.Load(); got != 0 {
					t.Fatalf("partial holder served %d whole-database requests", got)
				}
				if st.Digest != "dig-w" || st.Scatter.Sets != 1 {
					t.Fatalf("shape is not the whole store's: digest %q, %+v", st.Digest, st.Scatter)
				}
				return
			}
			if got := whole.searches.Load(); got != 0 {
				t.Fatalf("gated whole store served %d requests", got)
			}
			if st.Scatter.Sets != 2 || st.Scatter.Covered != 1 || st.Scatter.RejectedSetDown != 4 || st.Routed != 0 {
				t.Fatalf("half-covered partition not refused as such: routed %d, %+v", st.Routed, st.Scatter)
			}
			if st.Digest != "" {
				t.Fatalf("cluster digest %q under partial coverage; the cache must be bypassed", st.Digest)
			}
		})
	}
}

// togetherSet scripts a holder whose coalescer answers callers requests
// at once: each /search waits until callers of them are in, or a second
// has passed, and then they all reply together.
func togetherSet(callers int, psms ...api.PSMJSON) http.HandlerFunc {
	var mu sync.Mutex
	in, release := 0, make(chan struct{})
	reply := okSet(psms...)
	return func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		wait := release
		if in++; in == callers {
			close(release)
			in, release = 0, make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-wait:
		case <-time.After(time.Second):
		}
		reply(w, r)
	}
}

// TestScatterKeepsHolderConnectionsAlive: a scatter round costs its
// payload, not a TCP handshake. Concurrent callers drive rounds whose
// replies land together, as a holder's coalescer sends them. Each holder
// then sees about one connection per request the router had outstanding
// there — not a fresh set every round — /stats
// counts them, and closing the router closes them all.
func TestScatterKeepsHolderConnectionsAlive(t *testing.T) {
	const callers, rounds = 8, 6
	psm := api.PSMJSON{Peptide: 2, Sequence: "HIK", Score: 9, Shared: 3, Precursor: 500.25}
	holders := []*scatterFake{
		startScatterFake(t, 0, 2, "set-digest-0", 0, togetherSet(callers, psm)),
		startScatterFake(t, 1, 2, "set-digest-1", 0, togetherSet(callers)),
	}
	rt, ts := testRouter(t, fastProbes(), holders[0].ts.URL, holders[1].ts.URL)

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for i := 0; i < rounds; i++ {
				resp, err := client.Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("round %d: status %d", i, resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	for set, h := range holders {
		if got := h.searches.Load(); got != callers*rounds {
			t.Fatalf("set %d holder served %d searches, want %d", set, got, callers*rounds)
		}
		// net/http may start a dial for a request that an idle connection
		// then serves first, and pools the spare: allow one per caller.
		if got := h.opened.Load(); got > 2*callers {
			t.Errorf("set %d holder accepted %d connections for %d rounds of %d callers, want at most %d",
				set, got, rounds, callers, 2*callers)
		}
	}

	for set, h := range holders {
		// A spare dial may still be landing.
		waitFor(t, func() bool { return rt.Stats().Replicas[set].Dials == h.opened.Load() },
			fmt.Sprintf("set %d holder: /stats disagrees with the connections it accepted", set))
	}

	rt.Close()
	for set, h := range holders {
		waitFor(t, func() bool { return h.closed.Load() == h.opened.Load() },
			fmt.Sprintf("set %d holder: router left connections open after Close", set))
	}
}

// BenchmarkScatterRound is one /search through a two-set router whose
// holders answer at once with ten PSMs each: the router's own cost of a
// round — fan-out, two hops, decode, merge, encode — with no engine.
func BenchmarkScatterRound(b *testing.B) {
	reply := func(base uint32) http.HandlerFunc {
		psms := make([]api.PSMJSON, 10)
		for i := range psms {
			psms[i] = api.PSMJSON{Peptide: base + uint32(2*i), Sequence: "VLSEAEKDHMTLR", Score: 40 - float64(i),
				Shared: 9, Precursor: 1398.6812330114, Shard: int(base)}
		}
		body := api.AppendSearchResponse(nil, api.SearchResponse{Results: []api.QueryResult{{Scan: 0, PSMs: psms}}})
		return func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
		}
	}
	var urls []string
	for set := 0; set < 2; set++ {
		urls = append(urls, startScatterFake(b, set, 2, fmt.Sprintf("set-digest-%d", set), 0, reply(uint32(set))).ts.URL)
	}
	rt, err := New(urls, fastProbes())
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer func() { rt.Close(); ts.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		defer client.CloseIdleConnections()
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/search", "application/json", bytes.NewReader(searchBody))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
}
