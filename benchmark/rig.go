package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/router"
	"lbe/internal/server"
	"lbe/internal/spectrum"
)

// stages is one set-up, stage by stage, in seconds. Total is what setup_s
// reports: generated inputs to first answer.
type stages struct {
	NewSession      float64 // group + partition + parallel per-shard build
	Group           float64 // core.Group share of NewSession, as the session reports it
	Partition       float64 // partition share of NewSession
	Build           float64 // slowest shard's slm build
	Save            float64 // Session.Save (0 on scatter-2x)
	SavePartitioned float64 // Session.SavePartitioned (scatter-2x only)
	OpenMmap        float64 // engine.OpenSessionOptions with MapStore, all stores
	Boot            float64 // server.New / router.New and their listeners
	FirstBatch      float64 // first answer: deferred CRC verify, page faults
	Total           float64
}

// rig is one workload set up and ready to answer.
type rig struct {
	w         workload
	dir       string   // everything the rig wrote lives under it
	storeDirs []string // the store directories sessions opened: dir, or its shard-set subdirectories
	peptides  []string

	// built is the freshly built whole-store session. It answers the
	// reference pass and is dropped before the window, so the measured
	// process holds what a production one does: mapped stores, no heap
	// copy of the index.
	built *engine.Session
	// sessions are the mmap-opened sessions under test: one whole store,
	// or one per shard-set on scatter-2x (in set order, so their shards
	// concatenate to the whole store's).
	sessions []*engine.Session
	servers  []*server.Server
	router   *router.Router
	listens  []*httptest.Server // front door last
	url      string             // front door base URL; "" on batch-*

	stages     stages
	storeBytes int64
	rows       int
}

// setUp builds the workload's store from the corpus and brings it to the
// point of answering, timing every stage. tr, when non-nil, interposes a
// span on every handler.
func setUp(ctx context.Context, w workload, c *corpus, sc scale, dir string, tr *tracer) (*rig, error) {
	r := &rig{w: w, dir: dir}
	ok := false
	defer func() {
		if !ok {
			r.tearDown()
		}
	}()
	begin := time.Now()

	t := time.Now()
	built, err := engine.NewSession(c.Peptides, w.sessionConfig(sc))
	if err != nil {
		return nil, err
	}
	r.built = built
	r.stages.NewSession = time.Since(t).Seconds()
	for _, rs := range built.Stats() {
		r.rows += rs.Rows
		if s := time.Duration(rs.BuildNanos).Seconds(); s > r.stages.Build {
			r.stages.Build = s
		}
	}

	t = time.Now()
	if w.Front == frontScatter {
		cm, err := built.SavePartitioned(dir, c.Peptides, 2)
		if err != nil {
			return nil, err
		}
		r.stages.SavePartitioned = time.Since(t).Seconds()
		for _, d := range cm.SetDirs {
			r.storeDirs = append(r.storeDirs, filepath.Join(dir, d))
		}
	} else {
		if err := built.Save(dir, c.Peptides); err != nil {
			return nil, err
		}
		r.stages.Save = time.Since(t).Seconds()
		r.storeDirs = []string{dir}
	}

	t = time.Now()
	for _, d := range r.storeDirs {
		sess, peptides, err := engine.OpenSessionOptions(d, engine.OpenOptions{MapStore: true})
		if err != nil {
			return nil, err
		}
		if sess.MappedShards() != sess.NumShards() {
			sess.Close()
			return nil, fmt.Errorf("store %s opened with %d of %d shards mapped", d, sess.MappedShards(), sess.NumShards())
		}
		r.sessions = append(r.sessions, sess)
		r.peptides = peptides
	}
	r.stages.OpenMmap = time.Since(t).Seconds()

	t = time.Now()
	if w.Front != frontSession {
		var holderURLs []string
		for _, sess := range r.sessions {
			srv := server.New(sess, r.peptides, serverConfig())
			r.servers = append(r.servers, srv)
			h := srv.Handler()
			if tr != nil {
				parent := spanClient
				if w.Front == frontScatter {
					parent = spanRouter
				}
				h = tr.wrap(spanServer, parent, h)
			}
			ts := httptest.NewServer(h)
			r.listens = append(r.listens, ts)
			holderURLs = append(holderURLs, ts.URL)
		}
		r.url = holderURLs[0]
		if w.Front == frontScatter {
			rt, err := router.New(holderURLs, router.Config{Scatter: true})
			if err != nil {
				return nil, err
			}
			r.router = rt
			h := rt.Handler()
			if tr != nil {
				h = tr.wrap(spanRouter, spanClient, h)
			}
			ts := httptest.NewServer(h)
			r.listens = append(r.listens, ts)
			r.url = ts.URL
		}
	}
	r.stages.Boot = time.Since(t).Seconds()

	t = time.Now()
	if err := r.firstBatch(ctx, c.Spectra[:sc.Batch]); err != nil {
		return nil, fmt.Errorf("first batch: %w", err)
	}
	r.stages.FirstBatch = time.Since(t).Seconds()
	r.stages.Total = time.Since(begin).Seconds()

	// The grouping and partition times are the session's own account of
	// its construction; any Search result carries them.
	res, err := built.Search(ctx, nil)
	if err != nil {
		return nil, err
	}
	r.stages.Group = time.Duration(res.GroupingNanos).Seconds()
	r.stages.Partition = time.Duration(res.PartitionNanos).Seconds()

	if r.storeBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	ok = true
	return r, nil
}

// firstBatch sends the rig's first work through its front door: what a
// freshly started process pays before its first answer.
func (r *rig) firstBatch(ctx context.Context, qs []spectrum.Experimental) error {
	if r.w.Front == frontSession {
		_, err := r.sessions[0].Search(ctx, qs)
		return err
	}
	return r.postSpectra(ctx, qs)
}

// postSpectra sends qs to the front door as one multi-spectrum /search.
func (r *rig) postSpectra(ctx context.Context, qs []spectrum.Experimental) error {
	req := api.SearchRequest{Spectra: make([]api.SpectrumJSON, len(qs))}
	for i, q := range qs {
		req.Spectra[i] = api.FromExperimental(q)
	}
	_, err := api.New(r.url).Search(ctx, req)
	return err
}

// fillCache sends the whole shared pool through the front door once, in
// requests the size of a coalesced batch. serve-zipf then measures the hit
// path alone: a miss costs forty times a hit, so a window that still took
// a few would report mostly how many.
func (r *rig) fillCache(ctx context.Context, pool []spectrum.Experimental) error {
	per := serverConfig().BatchSize
	for lo := 0; lo < len(pool); lo += per {
		if err := r.postSpectra(ctx, pool[lo:min(lo+per, len(pool))]); err != nil {
			return fmt.Errorf("filling the cache: %w", err)
		}
	}
	return nil
}

// dropBuilt releases the reference session before the window.
func (r *rig) dropBuilt() {
	if r.built != nil {
		r.built.Close()
		r.built = nil
	}
}

// tearDown stops everything the rig started and removes its store.
func (r *rig) tearDown() {
	if r.router != nil {
		r.router.Close()
	}
	for i := len(r.listens) - 1; i >= 0; i-- {
		r.listens[i].Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	// The router reaches its holders through http.DefaultClient.
	http.DefaultClient.CloseIdleConnections()
	for _, s := range r.sessions {
		s.Close()
	}
	r.dropBuilt()
	os.RemoveAll(r.dir)
}

// shardStats concatenates the per-shard load of the sessions under test,
// which on scatter-2x reassembles the whole store's shard list.
func (r *rig) shardStats() []engine.RankStats {
	var out []engine.RankStats
	for _, s := range r.sessions {
		out = append(out, s.Stats()...)
	}
	return out
}

// shardFiles lists the SLMX shard files of the rig's store, sorted.
func (r *rig) shardFiles() ([]string, error) {
	var out []string
	err := filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".slmx" {
			out = append(out, path)
		}
		return err
	})
	return out, err
}

// dirBytes sums the sizes of the store's content files under dir. The JSON
// manifests are left out: they carry build timings as text, whose digit
// count — and so the byte total — would differ from run to run.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) == ".json" {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// post sends one /search body and returns the status and the whole reply.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}
