package engine_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"lbe/internal/engine"
	"lbe/internal/oracle"
	"lbe/internal/sched"
)

// TestSchedulerTelemetry: the session's lifetime scheduler stats must
// account every batch, report the granularity the pool's Tuner picked,
// and agree with the per-shard work ledger.
func TestSchedulerTelemetry(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	queries := c.Corpus.Queries[:30]
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 3}
	cfg.ThreadsPerRank = 4
	cfg.BatchSize = 10
	sess, err := engine.NewSession(c.Corpus.Peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, err := sess.Search(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	st := sess.SchedulerStats()
	if st.Batches == 0 || st.Chunks == 0 {
		t.Fatalf("scheduler stats did not accumulate: %+v", st)
	}
	// A 10-query batch over 3 shards and 4 workers sits on the Tuner's
	// granularity floor from the first batch on, and observed work can
	// only lower a chunk size, so every batch uses the cold pick.
	chunk := (&sched.Tuner{}).ChunkSize(cfg.BatchSize, cfg.Shards, cfg.ThreadsPerRank)
	if st.ChunkSize != chunk {
		t.Fatalf("scheduler stats report chunk size %d, the Tuner picks %d", st.ChunkSize, chunk)
	}
	if want := st.Batches * int64(cfg.Shards*((cfg.BatchSize+chunk-1)/chunk)); st.Chunks != want {
		t.Fatalf("%d chunks over %d batches, want %d at chunk size %d", st.Chunks, st.Batches, want, chunk)
	}
	if len(st.Workers) != 4 {
		t.Fatalf("%d lifetime workers, want 4", len(st.Workers))
	}
	var byWorker int64
	var workSum int64
	for _, w := range st.Workers {
		byWorker += int64(w.Chunks)
		workSum += w.Work.Scored
	}
	if byWorker != st.Chunks {
		t.Fatalf("chunk totals disagree: workers %d vs %d", byWorker, st.Chunks)
	}
	var shardScored int64
	for _, rs := range sess.Stats() {
		shardScored += rs.Work.Scored
	}
	if workSum != shardScored {
		t.Fatalf("worker work %d != shard work %d", workSum, shardScored)
	}
}

// TestSchedulerCancelledRunsLeakNothing: repeated cancelled searches must
// leave the goroutine count where it started.
func TestSchedulerCancelledRunsLeakNothing(t *testing.T) {
	c := oracle.CellOf(t, "generated", "open-all")
	queries := c.Corpus.Queries
	cfg := engine.SessionConfig{Config: c.Config(), Shards: 3}
	cfg.ThreadsPerRank = 4
	cfg.BatchSize = 2
	sess, err := engine.NewSession(c.Corpus.Peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	base := runtime.NumGoroutine()
	for i := 0; i < 6; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			cancel()
		}()
		if _, err := sess.Search(ctx, queries); err == nil {
			t.Logf("run %d finished before cancellation", i)
		}
		cancel()
	}
	waitForGoroutines(t, base)
}
