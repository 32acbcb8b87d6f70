package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/oracle"
	"lbe/internal/server"
	"lbe/internal/spectrum"
)

// testReplica is one serving replica and its HTTP server.
type testReplica struct {
	sess *engine.Session
	srv  *server.Server
	ts   *httptest.Server
}

// startReplica serves sess, with an answer cache of cacheBytes (0: none).
func startReplica(t *testing.T, sess *engine.Session, peptides []string, cacheBytes int64) *testReplica {
	t.Helper()
	srv := server.New(sess, peptides, server.Config{
		BatchSize: 8, FlushInterval: 2 * time.Millisecond, CacheBytes: cacheBytes,
	})
	r := &testReplica{sess: sess, srv: srv, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(r.kill)
	return r
}

// startReplicaDir serves a store directory — a whole store or one
// shard-set of a partitioned cluster.
func startReplicaDir(t *testing.T, dir string, cacheBytes int64) *testReplica {
	t.Helper()
	sess, peptides, err := engine.OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	return startReplica(t, sess, peptides, cacheBytes)
}

// kill tears the replica down abruptly: in-flight searches are
// cancelled, then the listener closes. Idempotent.
func (r *testReplica) kill() {
	if r.srv != nil {
		r.srv.Close()
		r.ts.Close()
		r.sess.Close()
		r.srv = nil
	}
}

// cluster is a cell's four-shard session saved whole and cut into two
// and four shard-sets, with its answer, which is held to RunSerial.
type cluster struct {
	oracle.Cell
	ref    *engine.Result
	whole  string // the whole store's directory
	digest string // the whole store's digest
	sets   map[int]string
	cms    map[int]*engine.ClusterManifest
}

func newCluster(t *testing.T, c oracle.Cell) *cluster {
	t.Helper()
	sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: c.Config(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	dir := t.TempDir()
	cl := &cluster{Cell: c, whole: filepath.Join(dir, "whole"), sets: map[int]string{}, cms: map[int]*engine.ClusterManifest{}}
	if cl.ref, err = sess.Search(context.Background(), c.Corpus.Queries); err != nil {
		t.Fatal(err)
	}
	c.Check(t, "4-shard session", cl.ref)
	if err := sess.Save(cl.whole, c.Corpus.Peptides); err != nil {
		t.Fatal(err)
	}
	cl.digest = sess.Digest()
	for _, sets := range []int{2, 4} {
		cl.sets[sets] = filepath.Join(dir, fmt.Sprint("sets-", sets))
		if cl.cms[sets], err = sess.SavePartitioned(cl.sets[sets], c.Corpus.Peptides, sets); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// post sends qs as one /search body and returns the reply of a 200.
func post(url string, qs []spectrum.Experimental) ([]byte, error) {
	req := api.SearchRequest{Spectra: make([]api.SpectrumJSON, len(qs))}
	for i, q := range qs {
		req.Spectra[i] = api.FromExperimental(q)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("scan %d: status %d: %s", qs[0].Scan, resp.StatusCode, data)
	}
	return data, err
}

// drive posts every query of the cluster's cell copies times, each as
// its own request and all at once, then every query in one request, and
// holds each reply to the cluster's answer. kill, when non-nil, runs once
// a third of the one-query replies are in.
func drive(t *testing.T, url string, cl *cluster, copies int, kill func()) {
	t.Helper()
	qs, n := cl.Corpus.Queries, len(cl.Corpus.Queries)
	bodies, errs := make([][]byte, copies*n+1), make([]error, copies*n+1)
	var done atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	for i := 0; i < copies*n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], errs[i] = post(url, qs[i%n:i%n+1])
			if kill != nil && done.Add(1) == int64(copies*n/3) {
				killOnce.Do(kill)
			}
		}(i)
	}
	wg.Wait()
	bodies[copies*n], errs[copies*n] = post(url, qs)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies[:copies*n] {
		oracle.Wire(t, "one-spectrum request", body, qs[i%n:i%n+1], cl.ref.PSMs[i%n:i%n+1], cl.Corpus.Peptides)
	}
	oracle.Wire(t, "every spectrum in one request", bodies[copies*n], qs, cl.ref.PSMs, cl.Corpus.Peptides)
}

// route drives the cell through a router over urls and checks what the
// router reports: every request routed once when nothing is cached,
// sets shard-sets all covered under digest, every holder healthy and
// carrying traffic in both directions, and the whole logical store's
// four shards on /healthz.
func route(t *testing.T, cl *cluster, cfg Config, copies, sets int, digest string, urls ...string) (*Router, string) {
	t.Helper()
	rt, ts := testRouter(t, cfg, urls...)
	drive(t, ts.URL, cl, copies, nil)
	st := rt.Stats()
	if n := int64(copies*len(cl.Corpus.Queries) + 1); cfg.CacheBytes == 0 && st.Routed != n {
		t.Fatalf("routed %d of %d requests", st.Routed, n)
	}
	if st.Scatter == nil || st.Scatter.Sets != sets || st.Scatter.Covered != sets || st.Digest != digest {
		t.Fatalf("router over %d sets reports digest %q, %+v; want %q", sets, st.Digest, st.Scatter, digest)
	}
	for _, rep := range st.Replicas {
		if !rep.Healthy || rep.DigestMismatch || rep.ShardSet == nil || rep.Routed == 0 || rep.BytesSent == 0 || rep.BytesReceived == 0 {
			t.Fatalf("holder %s is not a healthy holder carrying traffic: %+v", rep.URL, rep)
		}
	}
	var h api.HealthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
	}
	if err != nil || resp.StatusCode != http.StatusOK || h.Shards != 4 {
		t.Fatalf("healthz: %v %+v, want 200 with the 4 shards of the store", err, h)
	}
	return rt, ts.URL
}

// TestMatrix routes every corpus × shape through each router topology
// and holds each reply to the four-shard session the stores were cut
// from, itself held to RunSerial.
func TestMatrix(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, cl *cluster)
	}{
		{"whole", func(t *testing.T, cl *cluster) {
			route(t, cl, fastProbes(), 1, 1, cl.digest,
				startReplicaDir(t, cl.whole, 0).ts.URL, startReplicaDir(t, cl.whole, 0).ts.URL)
		}},
		{"sets=2", func(t *testing.T, cl *cluster) {
			_, urls := startSetReplicas(t, cl.sets[2], 2, 1)
			route(t, cl, fastProbes(), 1, 2, cl.cms[2].ClusterDigest, urls...)
		}},
		{"sets=4", func(t *testing.T, cl *cluster) {
			_, urls := startSetReplicas(t, cl.sets[4], 4, 1)
			route(t, cl, fastProbes(), 1, 4, cl.cms[4].ClusterDigest, urls...)
		}},
		// Both tiers cache. Every query goes twice at once, so the router
		// forwards one of each (its misses) and answers the rest itself.
		{"cached", func(t *testing.T, cl *cluster) {
			cfg := fastProbes()
			cfg.CacheBytes = 8 << 20
			rt, url := route(t, cl, cfg, 2, 1, cl.digest,
				startReplicaDir(t, cl.whole, 8<<20).ts.URL, startReplicaDir(t, cl.whole, 8<<20).ts.URL)
			n := int64(len(cl.Corpus.Queries))
			if st := rt.Stats(); st.Cache.Misses > n+1 || st.Cache.Hits+st.Cache.Collapsed < n || st.Routed != st.Cache.Misses {
				t.Fatalf("%d queries sent twice and once together: routed %d, router cache %+v", n, st.Routed, st.Cache)
			}
			waitFor(t, func() bool {
				agg := rt.Stats().Aggregate.Cache
				return agg != nil && agg.Misses > 0
			}, "the replicas' cache blocks never reached the aggregate")
			resp, err := http.Get(url + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			metrics, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, want := range []string{"lbe_router_cache_hits_total", "lbe_router_cache_misses_total",
				"lbe_router_cache_invalidated_total", "lbe_router_cache_resident_bytes"} {
				if err != nil || !strings.Contains(string(metrics), want) {
					t.Fatalf("router /metrics lacks %q (%v)", want, err)
				}
			}
		}},
	}
	for _, c := range oracle.Cells(t) {
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			cl := newCluster(t, c)
			for _, r := range rows {
				t.Run(r.name, func(t *testing.T) { r.run(t, cl) })
			}
		})
	}
}
