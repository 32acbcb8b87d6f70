// Partitioned serving walkthrough: build a session once, cut its store
// into three shard-sets with SavePartitioned, warm-start one holder per
// set (and a spare for set 0), and put an lbe-router over them — it
// discovers the partition from what the holders announce; nothing tells
// it the shape. Every /search fans out to one holder per shard-set
// and the per-set top-K lists are merged at the front-end into exactly
// the bytes a whole-store session would return — the example proves it
// by searching both paths and comparing. The finale kills the primary
// set-0 holder mid-traffic and shows the router failing over to the
// spare without a client-visible error and without losing coverage.
//
//	go run ./examples/scatter
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lbe"
	"lbe/internal/api"
	"lbe/internal/router"
	"lbe/internal/server"
)

// holderProc is one in-process "node": a warm-started shard-set behind
// the HTTP serving layer.
type holderProc struct {
	srv     *server.Server
	httpSrv *http.Server
	base    string
}

func startHolder(dir string) (*holderProc, error) {
	sess, peptides, err := lbe.OpenSession(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(sess, peptides, server.Config{
		BatchSize:     64,
		FlushInterval: 5 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	return &holderProc{srv: srv, httpSrv: httpSrv, base: "http://" + ln.Addr().String()}, nil
}

func (h *holderProc) stop(ctx context.Context) {
	_ = h.srv.Shutdown(ctx)
	_ = h.httpSrv.Shutdown(ctx)
}

func main() {
	// One database, one session — the whole-store reference every merged
	// answer must match byte for byte.
	recs, err := lbe.GenerateProteome(lbe.DefaultProteomeConfig())
	if err != nil {
		log.Fatal(err)
	}
	proteins := make([]string, len(recs))
	for i, r := range recs {
		proteins[i] = r.Sequence
	}
	peps, err := lbe.Digest(lbe.DefaultDigestConfig(), proteins)
	if err != nil {
		log.Fatal(err)
	}
	peptides := lbe.PeptideSequences(lbe.Dedup(peps))

	scfg := lbe.DefaultSpectraConfig()
	scfg.NumSpectra = 12
	queries, _, err := lbe.GenerateSpectra(peptides, scfg)
	if err != nil {
		log.Fatal(err)
	}

	sesscfg := lbe.DefaultSessionConfig()
	sesscfg.Shards = 6 // three shard-sets of two shards each
	sesscfg.TopK = 3
	sess, err := lbe.NewSession(peptides, sesscfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// Cut the store into three self-contained shard-sets. Each set
	// directory is a complete store a plain lbe-serve can open; the
	// cluster manifest records the composition and its digest.
	dir, err := os.MkdirTemp("", "lbe-scatter-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cm, err := sess.SavePartitioned(dir, peptides, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned store: %d peptides, %d shard-sets x %d shards, cluster digest %.12s...\n\n",
		len(peptides), cm.Sets, cm.TotalShards/cm.Sets, cm.ClusterDigest)

	// One holder per set, plus a spare replica for set 0 — the failover
	// target when the finale kills the primary.
	var holders []*holderProc
	var urls []string
	for _, sub := range append([]string{cm.SetDirs[0]}, cm.SetDirs...) {
		h, err := startHolder(filepath.Join(dir, sub))
		if err != nil {
			log.Fatal(err)
		}
		holders = append(holders, h)
		urls = append(urls, h.base)
	}
	spare, primary := holders[0], holders[1]
	fmt.Printf("set 0 holders: %s (primary), %s (spare)\n", primary.base, spare.base)
	fmt.Printf("set 1 holder:  %s\nset 2 holder:  %s\n", holders[2].base, holders[3].base)

	// The router discovers the topology from the holders'
	// announcements and composes the cluster digest from the per-set ones.
	rt, err := router.New(urls, router.Config{
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	front := &http.Server{Handler: rt.Handler()}
	go func() { _ = front.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	st := rt.Stats()
	fmt.Printf("router on %s: %d/%d sets covered, digest %.12s... (matches manifest: %v)\n\n",
		base, st.Scatter.Covered, st.Scatter.Sets, st.Digest, st.Digest == cm.ClusterDigest)

	// Byte-identity: the merged scatter answer equals the whole-store
	// session's answer for every query.
	client := api.New(base)
	ctx := context.Background()
	search := func(from, to int) {
		for i := from; i < to; i++ {
			sr, err := client.SearchSpectra(ctx, api.FromExperimental(queries[i]))
			if err != nil {
				log.Fatalf("query %d: %v", i, err)
			}
			ref, err := sess.Search(ctx, queries[i:i+1])
			if err != nil {
				log.Fatal(err)
			}
			got, _ := json.Marshal(sr)
			want, _ := json.Marshal(api.BuildSearchResponse(queries[i:i+1], ref.PSMs, peptides))
			status := "identical to whole-store answer"
			if string(got) != string(want) {
				status = "MISMATCH"
			}
			if psms := sr.Results[0].PSMs; len(psms) > 0 {
				fmt.Printf("query %2d: best %s (score %.3f, shard %d) — %s\n",
					i, psms[0].Sequence, psms[0].Score, psms[0].Shard, status)
			} else {
				fmt.Printf("query %2d: no match — %s\n", i, status)
			}
		}
	}
	search(0, len(queries)/2)

	// Kill the primary set-0 holder abruptly; the router fails over to
	// the spare, coverage holds at 3/3, and answers stay identical.
	fmt.Println("\nkilling the primary set-0 holder mid-traffic...")
	killCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	primary.stop(killCtx)
	cancel()
	search(len(queries)/2, len(queries))

	st = rt.Stats()
	fmt.Printf("\nall %d requests answered; %d failovers, %d/%d sets still covered\n",
		st.Routed, st.Failovers, st.Scatter.Covered, st.Scatter.Sets)
	// What the design costs on the wire: the spectrum travels to every
	// set, at most TopK candidates per set travel back.
	fmt.Printf("router→holder hop: %d B sent, %d B received per query (%d sets, TopK %d)\n",
		st.BytesSent/st.Routed, st.BytesReceived/st.Routed, st.Scatter.Sets, sesscfg.TopK)

	// Drain everything that is still up.
	shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(shutCtx); err != nil {
		log.Fatal(err)
	}
	_ = front.Shutdown(shutCtx)
	for _, h := range holders {
		if h != primary {
			h.stop(shutCtx)
		}
	}
	fmt.Println("drained cleanly")
}
