package sched

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"lbe/internal/mass"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// testShards builds ns small indexes over disjoint peptide slices plus a
// query set sampled to hit them.
func testShards(t testing.TB, ns int) ([]*slm.Index, []spectrum.Experimental) {
	t.Helper()
	peptides := []string{
		"ACDEFGHIK", "LMNPQRSTVK", "ACDEFGHIR", "GGGGAVLIMK",
		"PEPTIDESK", "SEQWENCER", "MKWVTFISLLK", "FSLLLLFSSAYSR",
		"GVFRRDAHK", "SEVAHRFK", "DLGEENFK", "ALVLIAFAQYLQQCPFEDHVK",
	}
	params := slm.DefaultParams()
	params.Mods.MaxPerPep = 1

	shards := make([]*slm.Index, ns)
	per := (len(peptides) + ns - 1) / ns
	for s := 0; s < ns; s++ {
		lo := s * per
		hi := lo + per
		if lo > len(peptides) {
			lo = len(peptides)
		}
		if hi > len(peptides) {
			hi = len(peptides)
		}
		ix, err := slm.BuildSerial(peptides[lo:hi], params)
		if err != nil {
			t.Fatal(err)
		}
		shards[s] = ix
	}

	// Queries derived from the peptides' own theoretical ions would need
	// the spectrum package's predictors; synthetic peak ladders are enough
	// to produce real matches through the shared-peak counter.
	var queries []spectrum.Experimental
	for i, seq := range peptides {
		q := spectrum.Experimental{Scan: i + 1, PrecursorMZ: 400 + float64(i)*7, Charge: 2}
		for j := 0; j < 3+len(seq)%5; j++ {
			q.Peaks = append(q.Peaks, spectrum.Peak{MZ: 100 + float64(i*13+j*29), Intensity: 1})
		}
		q.SortPeaks()
		queries = append(queries, spectrum.Preprocess(q, 50))
	}
	return shards, queries
}

// prepared resolves qs as the engine does before a Run, under the
// parameters that decide spans, which every test shard here shares.
func prepared(qs []spectrum.Experimental) []slm.Query {
	out := make([]slm.Query, len(qs))
	for i, q := range qs {
		out[i].Prepare(q, slm.DefaultParams())
	}
	return out
}

// serialReference computes the ground-truth match matrix and per-shard
// work with the plain serial scanner.
func serialReference(shards []*slm.Index, qs []spectrum.Experimental) ([][][]slm.Match, []slm.Work) {
	matches := make([][][]slm.Match, len(shards))
	works := make([]slm.Work, len(shards))
	for s, ix := range shards {
		matches[s], works[s] = ix.SearchAll(qs, 0)
	}
	return matches, works
}

// TestRunMatchesSerial: the scheduled match matrix and the deterministic
// work accounting must equal the serial reference for every worker count
// and chunk size (0 is the Tuner's pick).
func TestRunMatchesSerial(t *testing.T) {
	for _, ns := range []int{1, 3, 5} {
		shards, qs := testShards(t, ns)
		want, wantWork := serialReference(shards, qs)
		for _, workers := range []int{1, 2, 4, 9} {
			for _, chunkSize := range []int{0, 1, 3, 1000} {
				label := fmt.Sprintf("shards=%d/workers=%d/chunk=%d", ns, workers, chunkSize)
				p := NewPool(Options{Workers: workers, chunkSize: chunkSize})
				res, err := p.Run(context.Background(), shards, prepared(qs))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(res.Matches, want) {
					t.Fatalf("%s: match matrix differs from serial reference", label)
				}
				for s := range wantWork {
					if res.Shards[s].Work != wantWork[s] {
						t.Fatalf("%s: shard %d work %+v, serial %+v", label, s, res.Shards[s].Work, wantWork[s])
					}
				}
			}
		}
	}
}

// crowdedShards builds ns indexes whose cells are crowded and tied: every
// shard holds near-identical peptides, one of them twice (an exact score
// tie), and the queries are those peptides' own theoretical spectra under
// the open precursor window, so every (shard, query) cell has several
// matches for a top-K cut to choose among.
func crowdedShards(t testing.TB, ns int) ([]*slm.Index, []spectrum.Experimental) {
	t.Helper()
	family := []string{"PEPTIDEK", "PEPTIDER", "PEPTIDEH", "AEPTIDEK", "PEPTIDAK", "PEPSIDEK"}
	params := slm.DefaultParams()
	params.Mods.MaxPerPep = 0
	shards := make([]*slm.Index, ns)
	for s := range shards {
		local := append([]string{family[s%len(family)]}, family...)
		ix, err := slm.BuildSerial(local, params)
		if err != nil {
			t.Fatal(err)
		}
		shards[s] = ix
	}
	var qs []spectrum.Experimental
	for i, seq := range family {
		th, err := spectrum.Predict(seq)
		if err != nil {
			t.Fatal(err)
		}
		q := spectrum.Experimental{Scan: i + 1, PrecursorMZ: mass.MZ(th.Precursor, 1), Charge: 1}
		for j, ion := range th.Ions {
			q.Peaks = append(q.Peaks, spectrum.Peak{MZ: ion, Intensity: float64(1 + j%3)})
		}
		q.SortPeaks()
		qs = append(qs, spectrum.Preprocess(q, 50))
	}
	return shards, qs
}

// cutCell is the reference for Options.TopK: the matches of one serial
// cell scoring at least its k-th best score, in the cell's order.
func cutCell(cell []slm.Match, k int) []slm.Match {
	if k <= 0 || len(cell) <= k {
		return cell
	}
	scores := make([]float64, len(cell))
	for i, m := range cell {
		scores[i] = m.Score
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	var kept []slm.Match
	for _, m := range cell {
		if m.Score >= scores[k-1] {
			kept = append(kept, m)
		}
	}
	return kept
}

// TestRunTopKCutsCells: with Options.TopK set, every (shard, query) cell
// holds exactly the serial cell's matches scoring at least its TopK-th
// best score — ties at the cut kept, order kept — for every worker
// count, and the deterministic work accounting does not move.
func TestRunTopKCutsCells(t *testing.T) {
	shards, qs := crowdedShards(t, 3)
	full, wantWork := serialReference(shards, qs)
	for _, k := range []int{1, 2, 1000} {
		want := make([][][]slm.Match, len(full))
		dropped, ties := 0, 0
		for s := range full {
			want[s] = make([][]slm.Match, len(full[s]))
			for q, cell := range full[s] {
				want[s][q] = cutCell(cell, k)
				dropped += len(cell) - len(want[s][q])
				if k < len(cell) {
					ties += len(want[s][q]) - k
				}
			}
		}
		if (dropped == 0) != (k == 1000) || (ties == 0) != (k == 1000) {
			t.Fatalf("topk=%d dropped %d matches and kept %d ties; the test needs crowded cells with ties at the cut", k, dropped, ties)
		}
		for _, workers := range []int{1, 4} {
			p := NewPool(Options{Workers: workers, TopK: k, chunkSize: 2})
			for round := 0; round < 2; round++ { // the second Run reuses the first's worker states
				res, err := p.Run(context.Background(), shards, prepared(qs))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Matches, want) {
					t.Fatalf("topk=%d workers=%d round %d: cells differ from the cut serial reference", k, workers, round)
				}
				for s := range wantWork {
					if res.Shards[s].Work != wantWork[s] {
						t.Fatalf("topk=%d: shard %d work %+v, serial %+v", k, s, res.Shards[s].Work, wantWork[s])
					}
				}
			}
		}
	}
}

// TestConcurrentRunsShareWorkerStates drives one pool from several
// goroutines at once (run it under -race): no worker state may serve two
// Runs at a time, every Run's matches and per-Run telemetry must be whole,
// and afterwards the idle list holds each state exactly once.
func TestConcurrentRunsShareWorkerStates(t *testing.T) {
	shards, qs := testShards(t, 3)
	want, _ := serialReference(shards, qs)
	const workers, callers, rounds = 3, 4, 8
	p := NewPool(Options{Workers: workers, chunkSize: 1})
	wantChunks := len(shards) * len(qs)

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := p.Run(context.Background(), shards, prepared(qs))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Matches, want) {
					t.Error("match matrix differs from serial reference")
				}
				chunks := 0
				for _, w := range res.Workers {
					chunks += w.Chunks
				}
				if chunks != wantChunks {
					t.Errorf("a Run reported %d chunks, want %d: telemetry leaked between Runs", chunks, wantChunks)
				}
			}
		}()
	}
	wg.Wait()

	if n := len(p.free); n < workers || n > workers*callers {
		t.Fatalf("idle list holds %d states, want between %d and %d", n, workers, workers*callers)
	}
	seen := map[*workerState]bool{}
	for _, ws := range p.free {
		if seen[ws] {
			t.Fatal("a worker state is on the idle list twice")
		}
		seen[ws] = true
	}
}

// TestTelemetryAccounting: worker and shard telemetry must both sum to the
// whole batch, and every chunk must be accounted to exactly one worker.
func TestTelemetryAccounting(t *testing.T) {
	shards, qs := testShards(t, 3)
	p := NewPool(Options{Workers: 4, chunkSize: 2})
	res, err := p.Run(context.Background(), shards, prepared(qs))
	if err != nil {
		t.Fatal(err)
	}
	wantChunks := len(shards) * ((len(qs) + 1) / 2)
	var byWorker, byShard int
	var workerWork, shardWork slm.Work
	for _, w := range res.Workers {
		byWorker += w.Chunks
		workerWork.Add(w.Work)
	}
	for _, s := range res.Shards {
		byShard += s.Chunks
		shardWork.Add(s.Work)
	}
	if byWorker != wantChunks || byShard != wantChunks {
		t.Fatalf("chunk accounting: workers %d, shards %d, want %d", byWorker, byShard, wantChunks)
	}
	if workerWork != shardWork {
		t.Fatalf("work accounting: workers %+v, shards %+v", workerWork, shardWork)
	}
	if res.ChunkSize != 2 {
		t.Fatalf("chunk size %d, want the pinned 2", res.ChunkSize)
	}
}

// TestStealingReachesOrphanShards: with more shards than workers, the
// shards nobody is homed on can only be executed through steal-half, so
// the run must complete every chunk and report at least one steal. This
// holds on any machine, however the goroutines are actually interleaved.
func TestStealingReachesOrphanShards(t *testing.T) {
	shards, qs := testShards(t, 5)
	p := NewPool(Options{Workers: 2, chunkSize: 1})
	res, err := p.Run(context.Background(), shards, prepared(qs))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialReference(shards, qs)
	if !reflect.DeepEqual(res.Matches, want) {
		t.Fatal("match matrix differs from serial reference")
	}
	steals, stolen := 0, 0
	for _, w := range res.Workers {
		steals += w.Steals
		stolen += w.Stolen
	}
	if steals == 0 || stolen == 0 {
		t.Fatalf("orphan shards were reached without stealing (steals=%d stolen=%d)", steals, stolen)
	}
}

// TestStealHalf pins the deque steal semantics: thieves take the back
// half rounded up, owners keep popping the front.
func TestStealHalf(t *testing.T) {
	d := &deque{chunks: []chunk{{lo: 0}, {lo: 1}, {lo: 2}, {lo: 3}, {lo: 4}}}
	stolen := d.stealHalf()
	if len(stolen) != 3 || stolen[0].lo != 2 || stolen[2].lo != 4 {
		t.Fatalf("stealHalf took %+v", stolen)
	}
	if c, ok := d.pop(); !ok || c.lo != 0 {
		t.Fatalf("owner pop after steal: %+v %v", c, ok)
	}
	if d.size() != 1 {
		t.Fatalf("deque size %d after steal+pop", d.size())
	}
	d.pop()
	if got := d.stealHalf(); got != nil {
		t.Fatalf("stealHalf on empty deque returned %+v", got)
	}
}

// TestRunCancellation: a cancelled context must surface as ctx.Err() and
// leave no goroutines behind.
func TestRunCancellation(t *testing.T) {
	shards, qs := testShards(t, 2)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPool(Options{Workers: 4, chunkSize: 1})
	if _, err := p.Run(ctx, shards, prepared(qs)); err != context.Canceled {
		t.Fatalf("cancelled run returned %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancellation: %d > %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunReturnsVerifyError: a mapped shard whose content fails its
// deferred verification fails the Run with that error, once per run,
// rather than panicking the worker that first searches it.
func TestRunReturnsVerifyError(t *testing.T) {
	shards, qs := testShards(t, 2)
	path := filepath.Join(t.TempDir(), "shard.slmx")
	if err := shards[1].SaveFile(path); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	image[len(image)-1] ^= 0xFF // a posting byte: the ids section's CRC fails
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt, err := slm.OpenIndexMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer corrupt.Close()
	for _, workers := range []int{1, 3} {
		p := NewPool(Options{Workers: workers})
		res, err := p.Run(context.Background(), []*slm.Index{shards[0], corrupt}, prepared(qs))
		if err == nil || res != nil {
			t.Fatalf("%d workers: a corrupt shard ran: %v, %+v", workers, err, res)
		}
		if verr := corrupt.Verify(); err != verr {
			t.Fatalf("%d workers: Run returned %v, want the shard's Verify error %v", workers, err, verr)
		}
	}
}

// TestEmptyInputs: zero shards or zero queries complete without work.
func TestEmptyInputs(t *testing.T) {
	shards, qs := testShards(t, 2)
	p := NewPool(Options{Workers: 4})
	res, err := p.Run(context.Background(), nil, prepared(qs))
	if err != nil || len(res.Matches) != 0 {
		t.Fatalf("no shards: %v %+v", err, res)
	}
	res, err = p.Run(context.Background(), shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := range res.Matches {
		if len(res.Matches[s]) != 0 {
			t.Fatalf("shard %d produced matches for zero queries", s)
		}
	}
}

// TestEstimateSchedules pins the virtual-time replay: static pinning
// inherits the shard skew, stealing flattens it, one worker degenerates
// to the serial sum.
func TestEstimateSchedules(t *testing.T) {
	costs := [][]int64{
		{10, 10, 10, 10, 10, 10, 10, 10}, // heavy shard: 80 units
		{1, 1, 1, 1, 1, 1, 1, 1},         // light shard: 8 units
	}
	static := Estimate(costs, 2, false)
	steal := Estimate(costs, 2, true)
	if static != 80 {
		t.Fatalf("static makespan %d, want the pinned heavy shard's 80", static)
	}
	if steal >= static {
		t.Fatalf("stealing makespan %d did not beat static %d", steal, static)
	}
	if got := Estimate(costs, 1, true); got != 88 {
		t.Fatalf("one worker must serialize: %d, want 88", got)
	}
	if got := Estimate(nil, 4, true); got != 0 {
		t.Fatalf("empty costs: %d", got)
	}
	// The replay must be deterministic.
	if a, b := Estimate(costs, 3, true), Estimate(costs, 3, true); a != b {
		t.Fatalf("estimate not deterministic: %d vs %d", a, b)
	}
}

// TestChunkCosts: folding must mirror Run's chunk enumeration.
func TestChunkCosts(t *testing.T) {
	perQuery := [][]int64{{1, 2, 3, 4, 5}}
	got := ChunkCosts(perQuery, 2)
	want := []int64{3, 7, 5}
	if len(got) != 1 || len(got[0]) != len(want) {
		t.Fatalf("chunk costs %+v", got)
	}
	for i := range want {
		if got[0][i] != want[i] {
			t.Fatalf("chunk %d cost %d, want %d", i, got[0][i], want[i])
		}
	}
}

// TestTunerConverges: the auto-tuner must shrink chunks when cells are
// expensive and respect the granularity floor when they are cheap.
func TestTunerConverges(t *testing.T) {
	var tu Tuner
	// Unobserved: pure granularity floor.
	if got := tu.ChunkSize(1024, 1, 8); got != 1024/(minChunksPerWorker*8) {
		t.Fatalf("cold chunk size %d", got)
	}
	// Expensive cells force the work ceiling below the floor.
	tu.Observe(10, slm.Work{IonHits: 10 * targetChunkWork})
	if got := tu.ChunkSize(1024, 1, 8); got != 1 {
		t.Fatalf("expensive cells: chunk %d, want 1", got)
	}
	// Cheap cells restore the floor (EWMA needs a few rounds).
	for i := 0; i < 50; i++ {
		tu.Observe(1000, slm.Work{IonHits: 10})
	}
	if got := tu.ChunkSize(1024, 1, 8); got != 1024/(minChunksPerWorker*8) {
		t.Fatalf("cheap cells: chunk %d", got)
	}
	if got := tu.ChunkSize(4, 1, 64); got != 1 {
		t.Fatalf("tiny batch: chunk %d, want 1", got)
	}
}
