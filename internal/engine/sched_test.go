package engine

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"lbe/internal/core"
	"lbe/internal/spectrum"
)

// TestSchedulerTelemetry: the session's lifetime scheduler stats must
// account every batch, agree with the per-shard work ledger, and report
// steals only in stealing mode.
func TestSchedulerTelemetry(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 30)
	cfg := SessionConfig{Config: lightConfig(), Shards: 3}
	cfg.ThreadsPerRank = 4
	cfg.ChunkSize = 2
	cfg.Stealing = true
	cfg.BatchSize = 10
	sess, err := NewSession(peptides, cfg)
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
	if !st.Stealing || st.ChunkSize != 2 {
		t.Fatalf("scheduler config not reflected: %+v", st)
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

	// Static mode must stay steal-free.
	static := sess.Config().Schedule
	static.ChunkSize, static.Stealing = 2, false
	sess.SetSchedule(static)
	before := sess.SchedulerStats().Steals
	if _, err := sess.Search(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	after := sess.SchedulerStats()
	if after.Steals != before {
		t.Fatalf("static run stole: %d -> %d", before, after.Steals)
	}
	if after.Stealing {
		t.Fatal("SchedulerStats.Stealing must track the tuned mode")
	}
}

// TestSchedulerCancelledRunsLeakNothing: repeated cancelled searches under
// both scheduling modes must leave the goroutine count where it started.
func TestSchedulerCancelledRunsLeakNothing(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 60)
	cfg := SessionConfig{Config: lightConfig(), Shards: 3}
	cfg.ThreadsPerRank = 4
	cfg.BatchSize = 2
	sess, err := NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	base := runtime.NumGoroutine()
	for _, stealing := range []bool{true, false} {
		sc := cfg.Schedule
		sc.ChunkSize, sc.Stealing = 1, stealing
		sess.SetSchedule(sc)
		for i := 0; i < 3; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(time.Duration(i) * time.Millisecond)
				cancel()
			}()
			if _, err := sess.Search(ctx, queries); err == nil {
				t.Logf("steal=%v run %d finished before cancellation", stealing, i)
			}
			cancel()
		}
	}
	waitForGoroutines(t, base)
}

// skewedDataset builds a corpus whose clustered order concentrates the
// expensive peptides: sorted by ascending length, the Chunk policy hands
// the last shard the longest peptides (the most variants and ion
// postings), reproducing the skew LBE's figures show for chunk
// partitioning.
func skewedDataset(tb testing.TB, families, homologs, nspectra int) ([]string, []spectrum.Experimental) {
	peptides, queries, _ := testDataset(tb, families, homologs, nspectra)
	sort.Slice(peptides, func(i, j int) bool {
		if len(peptides[i]) != len(peptides[j]) {
			return len(peptides[i]) < len(peptides[j])
		}
		return peptides[i] < peptides[j]
	})
	return peptides, queries
}

// BenchmarkStealVsStatic measures the same skewed multi-shard search under
// the static baseline and the stealing scheduler. CI runs it once
// (-benchtime=1x) for the artifact; locally, -benchtime=5x+ gives stable
// ratios on multi-core machines.
func BenchmarkStealVsStatic(b *testing.B) {
	peptides, queries := skewedDataset(b, 12, 2, 200)
	for _, stealing := range []bool{false, true} {
		name := "static"
		if stealing {
			name = "stealing"
		}
		b.Run(name, func(b *testing.B) {
			cfg := SessionConfig{Config: lightConfig(), Shards: 4}
			cfg.Policy = core.Chunk
			cfg.RawOrder = true
			cfg.ThreadsPerRank = runtime.GOMAXPROCS(0)
			cfg.Stealing = stealing
			cfg.TopK = 5
			sess, err := NewSession(peptides, cfg)
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
			st := sess.SchedulerStats()
			b.ReportMetric(float64(st.Steals)/float64(b.N), "steals/op")
			b.ReportMetric(float64(len(queries)), "queries/op")
		})
	}
}
