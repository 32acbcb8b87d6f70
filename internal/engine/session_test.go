package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"lbe/internal/bench"
	"lbe/internal/core"
	"lbe/internal/engine"
	"lbe/internal/oracle"
)

// TestSessionServesRepeatedBatches: the point of a Session — repeated
// searches over the same built engine return identical results and the
// load accounting accumulates.
func TestSessionServesRepeatedBatches(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides, queries := c.Corpus.Peptides, c.Corpus.Queries
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 3}
	cfg.BatchSize = 5
	sess, err := engine.NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	a, err := sess.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	oracle.PSMs(t, "repeat", b.PSMs, a.PSMs, true)
	if got := sess.Searched(); got != int64(2*len(queries)) {
		t.Errorf("lifetime searched = %d, want %d", got, 2*len(queries))
	}
	sts := sess.Stats()
	if len(sts) != 3 {
		t.Fatalf("lifetime stats for %d shards", len(sts))
	}
	var work int64
	for _, s := range sts {
		work += s.Work.Scored
	}
	if work != 2*a.CandidatePSMs() {
		t.Errorf("lifetime scored %d, want %d", work, 2*a.CandidatePSMs())
	}
}

// TestBatchesArriveInOrder: each hands its emit the batches of a query
// set in order — contiguous offsets, BatchSize queries apiece — and their
// union is what Search returns.
func TestBatchesArriveInOrder(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides, queries := c.Corpus.Peptides, c.Corpus.Queries
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 2}
	cfg.ThreadsPerRank = 2
	cfg.BatchSize = 7
	sess, err := engine.NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	want, err := sess.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}

	got := make([][]engine.PSM, len(queries))
	covered := 0
	err = sess.Each(context.Background(), queries, func(br engine.BatchResult) error {
		if br.Offset != covered {
			t.Fatalf("batch offset %d, want %d", br.Offset, covered)
		}
		if n, want := len(br.PSMs), min(cfg.BatchSize, len(queries)-covered); n != want {
			t.Fatalf("batch at offset %d holds %d queries, want %d", br.Offset, n, want)
		}
		copy(got[br.Offset:], br.PSMs)
		covered += len(br.PSMs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if covered != len(queries) {
		t.Fatalf("each covered %d of %d queries", covered, len(queries))
	}
	oracle.PSMs(t, "each", got, want.PSMs, true)
}

// TestEachStopsOnEmitError: emit's error ends the run and is what each
// returns; no batch after the refused one is searched.
func TestEachStopsOnEmitError(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides, queries := c.Corpus.Peptides, c.Corpus.Queries
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 2}
	cfg.BatchSize = 7
	sess, err := engine.NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	refused := errors.New("consumer gave up")
	emitted := 0
	before := sess.Batches()
	err = sess.Each(context.Background(), queries, func(engine.BatchResult) error {
		if emitted++; emitted == 2 {
			return refused
		}
		return nil
	})
	if !errors.Is(err, refused) {
		t.Fatalf("each returned %v, want emit's error", err)
	}
	if got := sess.Batches() - before; got != 2 {
		t.Fatalf("%d batches searched for 2 emitted", got)
	}
}

// TestSearchRunsOnCallersGoroutine: with one scheduler worker the whole
// data path runs where Search was called — while a batch is being handed
// over, no goroutine exists that did not before the call.
func TestSearchRunsOnCallersGoroutine(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides, queries := c.Corpus.Peptides, c.Corpus.Queries
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 2}
	cfg.ThreadsPerRank = 1
	cfg.BatchSize = 5
	sess, err := engine.NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	base := runtime.NumGoroutine()
	err = sess.Each(context.Background(), queries, func(br engine.BatchResult) error {
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("batch at offset %d: %d goroutines alive, %d before the call", br.Offset, n, base)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base (allowing the runtime's own background goroutines to come and go).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d alive, want <= %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSearchCancellation: Session.Search must return the context error and
// leak nothing when cancelled mid-run.
func TestSearchCancellation(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides, queries := c.Corpus.Peptides, c.Corpus.Queries
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 2}
	cfg.BatchSize = 1
	sess, err := engine.NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: Search must fail fast
	if _, err := sess.Search(ctx, queries); err == nil {
		t.Fatal("Search succeeded with a cancelled context")
	}
	waitForGoroutines(t, base)

	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := sess.Search(ctx, queries); err == nil {
		// A fast machine may legitimately finish before the cancel lands;
		// only a hang or a leak is a failure.
		t.Log("search finished before cancellation landed")
	}
	waitForGoroutines(t, base)
}

// TestFourShardSearchCancellation: a search spread over four in-process
// shards must unblock every shard and return promptly when cancelled
// mid-run, leaving no goroutine behind.
func TestFourShardSearchCancellation(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides, queries := c.Corpus.Peptides, c.Corpus.Queries
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 4}
	cfg.BatchSize = 1
	sess, err := engine.NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := sess.Search(ctx, queries)
	if err == nil && res == nil {
		t.Fatal("nil result without error")
	}
	if err != nil && time.Since(start) > 30*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
	waitForGoroutines(t, base)
}

// TestSessionClosed: a closed session refuses new work.
func TestSessionClosed(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	peptides, queries := c.Corpus.Peptides, c.Corpus.Queries
	sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: c.Config(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	emit := func(engine.BatchResult) error { return nil }
	if err := sess.Each(context.Background(), queries, emit); err == nil {
		t.Error("each on closed session must fail")
	}
	if _, err := sess.Search(context.Background(), queries); err == nil {
		t.Error("Search on closed session must fail")
	}
}

// TestSessionEmptyInputs: sessions over empty databases and empty query
// sets behave like the serial baseline.
func TestSessionEmptyInputs(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	sess, err := engine.NewSession(nil, engine.SessionConfig{Config: c.Config(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Search(context.Background(), c.Corpus.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for q, psms := range res.PSMs {
		if len(psms) != 0 {
			t.Errorf("query %d matched against empty database", q)
		}
	}
	sess.Close()

	sess, err = engine.NewSession(c.Corpus.Peptides, engine.SessionConfig{Config: c.Config(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err = sess.Search(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PSMs) != 0 || len(res.Stats) != 3 {
		t.Errorf("empty query run: %d PSMs, %d stats", len(res.PSMs), len(res.Stats))
	}
}

// TestSessionBuildFailureNamesTheBuild: an error in one shard only (a
// bad peptide in its partition) fails NewSession with the root cause,
// naming the build and the shard.
func TestSessionBuildFailureNamesTheBuild(t *testing.T) {
	peptides := make([]string, 30)
	for i := range peptides {
		peptides[i] = "ACDEFGHIKLMNPQRSTVWY"
	}
	peptides[29] = "PEPT!DEK" // invalid residue, lands in the last chunk only
	cfg := oracle.CellOf(t, "single-row", "open-all").Config()
	cfg.RawOrder = true
	cfg.Policy = core.Chunk

	sess, err := engine.NewSession(peptides, engine.SessionConfig{Config: cfg, Shards: 3})
	if err == nil {
		sess.Close()
		t.Fatal("session over an invalid peptide built")
	}
	if !strings.Contains(err.Error(), "shard 2 build") {
		t.Fatalf("error does not name shard 2's build: %v", err)
	}
}

// BenchmarkSessionSearch measures steady-state search over a
// prebuilt session at increasing database scales.
func BenchmarkSessionSearch(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("peptides=%d", n), func(b *testing.B) {
			cfg := engine.DefaultSessionConfig()
			cfg.Params.Mods.MaxPerPep = 0 // unmodified index keeps setup fast
			cfg.Shards = 4
			c, err := bench.SizedCorpus(n, 200, 41, cfg.Params.Mods)
			if err != nil {
				b.Fatal(err)
			}
			queries := c.Queries
			sess, err := engine.NewSession(c.Peptides, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Search(context.Background(), queries); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(queries)), "queries/op")
		})
	}
}
