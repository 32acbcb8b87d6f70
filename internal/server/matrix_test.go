package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/oracle"
	"lbe/internal/spectrum"
)

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

// drive posts every query of the cell copies times, each as its own
// request and all at once, then every query in one request, and holds
// each reply to ref's rendering.
func drive(t *testing.T, url string, c oracle.Cell, ref *engine.Result, copies int) {
	t.Helper()
	qs, n := c.Corpus.Queries, len(c.Corpus.Queries)
	bodies, errs := make([][]byte, copies*n+1), make([]error, copies*n+1)
	var wg sync.WaitGroup
	for i := 0; i < copies*n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], errs[i] = post(url, qs[i%n:i%n+1])
		}(i)
	}
	wg.Wait()
	bodies[copies*n], errs[copies*n] = post(url, qs)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies[:copies*n] {
		oracle.Wire(t, "one-spectrum request", body, qs[i%n:i%n+1], ref.PSMs[i%n:i%n+1], c.Corpus.Peptides)
	}
	oracle.Wire(t, "every spectrum in one request", bodies[copies*n], qs, ref.PSMs, c.Corpus.Peptides)
}

// TestMatrix serves every corpus × shape from a three-shard session and
// holds each reply to that session's answer, itself held to RunSerial.
func TestMatrix(t *testing.T) {
	rows := []struct {
		name   string
		cfg    Config
		copies int // times each query is sent on its own
		check  func(t *testing.T, srv *Server, n int)
	}{
		{"served", Config{BatchSize: 8, FlushInterval: 2 * time.Millisecond}, 1, nil},
		// Every query is sent twice at once and then once more in the
		// multi-spectrum request: one miss per query, the rest hits or
		// collapses onto the miss.
		{"cached", Config{BatchSize: 8, FlushInterval: 2 * time.Millisecond, CacheBytes: 8 << 20}, 2, func(t *testing.T, srv *Server, n int) {
			if cs := srv.Stats().Cache; cs.Misses > int64(n) || cs.Hits+cs.Collapsed < int64(2*n) {
				t.Fatalf("%d queries sent three times: cache %+v", n, cs)
			}
		}},
	}
	for _, c := range oracle.Cells(t) {
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			sess, err := engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: c.Config(), Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			ref, err := sess.Search(context.Background(), c.Corpus.Queries)
			if err != nil {
				t.Fatal(err)
			}
			c.Check(t, "3-shard session", ref)
			for _, r := range rows {
				t.Run(r.name, func(t *testing.T) {
					srv := New(sess, c.Corpus.Peptides, r.cfg)
					defer srv.Close()
					ts := httptest.NewServer(srv.Handler())
					defer ts.Close()
					drive(t, ts.URL, c, ref, r.copies)
					if r.check != nil {
						r.check(t, srv, len(c.Corpus.Queries))
					}
				})
			}
		})
	}
}
