package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"lbe/internal/api"
	"lbe/internal/engine"
	"lbe/internal/qcache"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
	"lbe/internal/stats"
)

// Below the HTTP handlers and Session.Search nothing can be interposed
// from outside, so after the window each lower layer is driven alone, on
// one goroutine, over the workload's own inputs. A probe's time is that
// layer's cost with nothing contending for the machine.

// probeInputs are the spectra the probes run: the head of what the
// workload's callers sent.
func probeInputs(w workload, c *corpus, sc scale) []spectrum.Experimental {
	lo := 0
	if w.distinctRequests() {
		lo = sc.Pool
	}
	return c.Spectra[lo : lo+sc.Probe]
}

// perItemUs is d spread over n items, in microseconds.
func perItemUs(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// probeKernel opens every shard file the way a mapped session does and
// searches the probe spectra across all of them with a warm Scratch: the
// cost of the kernel for one spectrum over the whole store. It returns
// the mean of that cost in milliseconds.
func probeKernel(r *rig, qs []spectrum.Experimental, m map[string]float64) (float64, error) {
	files, err := r.shardFiles()
	if err != nil {
		return 0, err
	}
	var shards []*slm.Index
	defer func() {
		for _, ix := range shards {
			ix.Close()
		}
	}()
	var open, verify, write, load time.Duration
	var bytesTotal int
	var maxPeaks int
	for _, f := range files {
		t := time.Now()
		ix, err := slm.OpenIndexMapped(f)
		if err != nil {
			return 0, err
		}
		open += time.Since(t)
		shards = append(shards, ix)
		t = time.Now()
		if err := ix.Verify(); err != nil {
			return 0, err
		}
		verify += time.Since(t)
		t = time.Now()
		if _, err := ix.WriteTo(io.Discard); err != nil {
			return 0, err
		}
		write += time.Since(t)
		t = time.Now()
		if _, err := slm.LoadFile(f); err != nil {
			return 0, err
		}
		load += time.Since(t)
		bytesTotal += ix.MemoryBytes()
		maxPeaks = ix.Params().MaxQueryPeaks
	}
	m["slm.open_mapped_ms"] = ms(open.Nanoseconds())
	m["slm.verify_ms"] = ms(verify.Nanoseconds())
	m["slm.write_s"] = write.Seconds()
	m["slm.load_heap_ms"] = ms(load.Nanoseconds())
	m["slm.index_mb"] = float64(bytesTotal) / (1 << 20)

	t := time.Now()
	pre := spectrum.PreprocessAll(qs, maxPeaks)
	m["spectrum.preprocess_us"] = perItemUs(time.Since(t), len(qs))

	// Shard by shard, as a scheduler chunk runs several spectra against one
	// shard before moving on; a spectrum's cost is its share of each pass.
	var scratch slm.Scratch
	us := make([]float64, len(pre))
	var postings int64
	var total time.Duration
	for _, ix := range shards {
		// One untimed pass first: it grows the scratch and faults in the
		// pages of this fresh mapping that the timed pass will touch, which
		// the sessions under test did long before the window.
		for _, q := range pre {
			ix.Search(q, 0, &scratch)
		}
		for i, q := range pre {
			t := time.Now()
			_, w := ix.Search(q, 0, &scratch)
			d := time.Since(t)
			total += d
			us[i] += perItemUs(d, 1)
			postings += w.IonHits
		}
	}
	sorted := sortedCopy(us)
	m["slm.search_us_p50"] = percentile(sorted, 50)
	m["slm.search_us_p95"] = percentile(sorted, 95)
	m["slm.ns_per_posting"] = ratio(float64(total.Nanoseconds()), float64(postings))
	return stats.Mean(us) / 1e3, nil
}

// probeEngine calls Session.Search alone at the given batch size and
// returns the sorted call times in milliseconds.
func probeEngine(ctx context.Context, sess *engine.Session, qs []spectrum.Experimental, batch int) ([]float64, error) {
	var out []float64
	for lo := 0; lo+batch <= len(qs); lo += batch {
		t := time.Now()
		if _, err := sess.Search(ctx, qs[lo:lo+batch]); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t).Nanoseconds()))
	}
	return sortedCopy(out), nil
}

// probeOpenHeap times a heap open of every store directory.
func probeOpenHeap(dirs []string) (float64, error) {
	t := time.Now()
	for _, d := range dirs {
		sess, _, err := engine.OpenSessionOptions(d, engine.OpenOptions{MapStore: false})
		if err != nil {
			return 0, err
		}
		sess.Close()
	}
	return ms(time.Since(t).Nanoseconds()), nil
}

// probeWire times the request decode and the response render + encode the
// server does per request, and the sizes of both bodies.
func probeWire(ctx context.Context, r *rig, c *corpus, qs []spectrum.Experimental, m map[string]float64) error {
	b, err := newBodies(qs, 0, len(qs))
	if err != nil {
		return err
	}
	reqs := make([][]byte, len(qs))
	reqBytes := 0
	for i := range qs {
		reqs[i] = b.make(i, int64(i+1))
		reqBytes += len(reqs[i])
	}
	t := time.Now()
	for _, body := range reqs {
		var req api.SearchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return err
		}
		for _, sj := range req.Spectra {
			if _, err := sj.Experimental(); err != nil {
				return err
			}
		}
	}
	m["api.decode_us"] = perItemUs(time.Since(t), len(qs))
	m["api.request_bytes"] = float64(reqBytes) / float64(len(qs))

	// Answers to render: the sessions under test give them (on scatter-2x
	// the merge of the holders' is what the router encodes).
	parts := make([][][]engine.PSM, len(r.sessions))
	for s, sess := range r.sessions {
		res, err := sess.Search(ctx, qs)
		if err != nil {
			return err
		}
		parts[s] = res.PSMs
	}
	respBytes := 0
	var encode, merge time.Duration
	for i, q := range qs {
		one := []spectrum.Experimental{q}
		var resp api.SearchResponse
		t := time.Now()
		if len(parts) == 1 {
			resp = api.BuildSearchResponse(one, parts[0][i:i+1], c.Peptides)
		} else {
			// The front door of a scatter renders nothing itself: it merges
			// what the holders rendered and encodes that.
			set := make([]api.SearchResponse, len(parts))
			for s, p := range parts {
				set[s] = api.BuildSearchResponse(one, p[i:i+1], c.Peptides)
			}
			t = time.Now()
			if resp, err = api.MergeSearchResponses(set, r.sessions[0].Config().TopK); err != nil {
				return err
			}
			merge += time.Since(t)
			t = time.Now()
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			return err
		}
		encode += time.Since(t)
		respBytes += buf.Len()
	}
	m["api.encode_us"] = perItemUs(encode, len(qs))
	m["api.merge_us"] = perItemUs(merge, len(qs))
	m["api.response_bytes"] = float64(respBytes) / float64(len(qs))
	return nil
}

// probeCache times the two things a cached request pays before it can be
// answered without the engine: deriving the content key, and the hit.
func probeCache(sess *engine.Session, qs []spectrum.Experimental, m map[string]float64) {
	keyer := qcache.NewKeyer(sess.Digest(), fmt.Sprintf("topk=%d", sess.Config().TopK))
	keys := make([]string, len(qs))
	t := time.Now()
	for i, q := range qs {
		keys[i] = keyer.Spectrum(q)
	}
	m["qcache.key_us"] = perItemUs(time.Since(t), len(qs))

	cache := qcache.New[[]engine.PSM](qcache.Config{MaxBytes: 64 << 20},
		func(ps []engine.PSM) int { return 64 + 40*len(ps) })
	for _, k := range keys {
		cache.Put(k, make([]engine.PSM, 10))
	}
	t = time.Now()
	for _, k := range keys {
		cache.Acquire(k)
	}
	m["qcache.hit_us"] = perItemUs(time.Since(t), len(qs))
}

// runProbes drives every layer below the interposable boundaries and
// derives the figures that combine a probe with the traced window:
// engineSpans are the engine.search spans (batch-* only), searched the
// spectra the engine searched in the window and cpuMs the CPU the process
// spent in it.
func runProbes(ctx context.Context, r *rig, c *corpus, sc scale, engineSpans []float64, searched, cpuMs float64, m map[string]float64) error {
	qs := probeInputs(r.w, c, sc)
	kernelMs, err := probeKernel(r, qs, m)
	if err != nil {
		return fmt.Errorf("slm probe: %w", err)
	}
	// The kernel's share of the window's CPU: what the probe says the
	// searched spectra cost, against what the whole process spent.
	m["slm.cpu_share_pct"] = 100 * ratio(kernelMs*searched, cpuMs)

	batch := sc.Batch
	engineMs := sortedCopy(engineSpans)
	if r.w.Front != frontSession {
		batch = max(1, int(m["server.queries_per_batch"]+0.5))
		if engineMs, err = probeEngine(ctx, r.sessions[0], qs, batch); err != nil {
			return fmt.Errorf("engine probe: %w", err)
		}
	}
	m["engine.search_ms_p50"] = percentile(engineMs, 50)
	m["engine.search_ms_p95"] = percentile(engineMs, 95)
	// What Session.Search adds around the kernel: the batch's kernel time,
	// were it spread perfectly over the workers, against the whole call.
	// On scatter-2x the probed session holds half the shards.
	share := kernelMs * float64(batch) / float64(len(r.sessions)) / float64(runtime.GOMAXPROCS(0))
	m["engine.self_share"] = max(0, 1-ratio(share, m["engine.search_ms_p50"]))

	if m["engine.open_heap_ms"], err = probeOpenHeap(r.storeDirs); err != nil {
		return fmt.Errorf("heap open probe: %w", err)
	}
	if err := probeWire(ctx, r, c, qs, m); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	probeCache(r.sessions[0], qs, m)
	return nil
}
