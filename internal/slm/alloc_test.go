package slm

import (
	"fmt"
	"testing"

	"lbe/internal/mass"
)

// warmSearchAllocs is the guard both open kinds share: with a warm Scratch
// the only allocation Search or SearchQuery may make is the single copy-out
// of the result slice, and none at all when nothing matches. wantPruned
// says which phase-1 scan the index must have run for the hit.
func warmSearchAllocs(t *testing.T, label string, ix *Index, wantPruned bool) {
	t.Helper()
	hit := queryFor(t, "PEPTIDEK")
	miss := queryFor(t, "WWWWWWWWK")

	var scratch Scratch
	ms, w := ix.Search(hit, 5, &scratch) // warm buffers
	if len(ms) == 0 || (w.Pruned > 0) != wantPruned {
		t.Fatalf("%s: %d matches, %d postings pruned; want a hit, windowed scan = %v", label, len(ms), w.Pruned, wantPruned)
	}
	if n := testing.AllocsPerRun(100, func() {
		ix.Search(hit, 5, &scratch)
	}); n > 1 {
		t.Errorf("%s: Search with matches allocates %.1f times per run, want <= 1 (result copy only)", label, n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ix.Search(miss, 5, &scratch)
	}); n != 0 {
		t.Errorf("%s: Search without matches allocates %.1f times per run, want 0", label, n)
	}

	// The scheduler's entry: a query prepared once, searched again.
	var hitQ, missQ Query
	hitQ.Prepare(hit, ix.params)
	missQ.Prepare(miss, ix.params)
	if n := testing.AllocsPerRun(100, func() {
		ix.SearchQuery(&hitQ, 1, &scratch)
	}); n > 1 {
		t.Errorf("%s: SearchQuery with matches allocates %.1f times per run, want <= 1 (result copy only)", label, n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ix.SearchQuery(&missQ, 1, &scratch)
	}); n != 0 {
		t.Errorf("%s: SearchQuery without matches allocates %.1f times per run, want 0", label, n)
	}
}

// TestPrepareZeroAllocWarm guards Query.Prepare: once a Query's span
// buffer, and under a bounded tolerance its word list, has grown to a
// spectrum's peaks, preparing it again allocates nothing.
func TestPrepareZeroAllocWarm(t *testing.T) {
	narrow := DefaultParams()
	narrow.PrecursorTol = mass.Da(0.5)
	hit := queryFor(t, "PEPTIDEK")
	for label, params := range map[string]Params{"open": DefaultParams(), "bounded": narrow} {
		var q Query
		q.Prepare(hit, params)
		if len(q.spans) != len(hit.Peaks) {
			t.Fatalf("%s: %d spans for %d peaks in range", label, len(q.spans), len(hit.Peaks))
		}
		if (len(q.words) > 0) != (label == "bounded") {
			t.Fatalf("%s: %d bitset words prepared", label, len(q.words))
		}
		if n := testing.AllocsPerRun(100, func() {
			q.Prepare(hit, params)
		}); n != 0 {
			t.Errorf("%s: warm Prepare allocates %.1f times per run, want 0", label, n)
		}
	}
}

// scanParams returns the two parameter sets that exercise the two phase-1
// scans: open search (flattened full scan) and a 0.5 Da window (windowed).
func scanParams() map[string]Params {
	narrow := noModParams()
	narrow.PrecursorTol = mass.Da(0.5)
	return map[string]Params{"full scan": noModParams(), "windowed scan": narrow}
}

// TestSearchZeroAllocWarmScratch guards the zero-alloc search path on a
// heap index, for both phase-1 scans.
func TestSearchZeroAllocWarmScratch(t *testing.T) {
	peps := []string{"PEPTIDEK", "PEPTIDER", "PEPTIDEH", "AAAAGGGGK"}
	for label, params := range scanParams() {
		ix, err := Build(peps, params)
		if err != nil {
			t.Fatal(err)
		}
		warmSearchAllocs(t, label, ix, !params.PrecursorTol.IsOpen())
	}
}

// TestMappedSearchZeroAllocWarmScratch extends the warm zero-alloc guard
// to the mapped search path: searching zero-copy views of a memory
// mapping must allocate exactly like searching heap arrays — one result
// copy with matches, nothing on a miss — under both scans.
func TestMappedSearchZeroAllocWarmScratch(t *testing.T) {
	peps := []string{"PEPTIDEK", "PEPTIDER", "PEPTIDEH", "AAAAGGGGK"}
	for label, params := range scanParams() {
		built, err := Build(peps, params)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := OpenIndexMapped(saveTestIndex(t, built))
		if err != nil {
			t.Fatal(err)
		}
		warmSearchAllocs(t, "mapped "+label, ix, !params.PrecursorTol.IsOpen())
		ix.Close()
	}
}

// TestScratchGrowthAmortized reproduces the work-stealing pool's access
// pattern: one Scratch alternating between indexes of different row
// counts. Capacity must be rounded up so the alternation does not
// reallocate the accumulator on every switch.
func TestScratchGrowthAmortized(t *testing.T) {
	small := make([]string, 0, 3)
	big := make([]string, 0, 9)
	for i := 0; i < 9; i++ {
		seq := fmt.Sprintf("PEPT%cDEK", "ACDEFGHIK"[i])
		if i < 3 {
			small = append(small, seq)
		}
		big = append(big, seq)
	}
	ixSmall, err := Build(small, noModParams())
	if err != nil {
		t.Fatal(err)
	}
	ixBig, err := Build(big, noModParams())
	if err != nil {
		t.Fatal(err)
	}
	miss := queryFor(t, "WWWWWWWWK")

	var scratch Scratch
	ixBig.Search(miss, 0, &scratch) // warm to the larger size

	if n := testing.AllocsPerRun(50, func() {
		ixSmall.Search(miss, 0, &scratch)
		ixBig.Search(miss, 0, &scratch)
	}); n != 0 {
		t.Errorf("alternating shard sizes reallocates scratch (%.1f allocs per pair), want 0", n)
	}
}

// TestScratchEnsureRoundsCapacityUp pins the growth policy: capacity is
// rounded to the next power of two so a monotone-increasing run of shard
// sizes costs O(log n) reallocations, not one per size — and the candidate
// list grows at the same site, one slot longer than the accumulator.
func TestScratchEnsureRoundsCapacityUp(t *testing.T) {
	var s Scratch
	s.ensure(65)
	if len(s.acc) != 128 || len(s.cands) != 129 {
		t.Fatalf("ensure(65) sized acc/cands to %d/%d, want 128/129 (next power of two, plus the always-store slot)", len(s.acc), len(s.cands))
	}
	acc, cands := &s.acc[0], &s.cands[0]
	s.ensure(100)
	if &s.acc[0] != acc || &s.cands[0] != cands {
		t.Fatal("ensure(100) reallocated a buffer that already had capacity for it")
	}
	s.ensure(3)
	if len(s.acc) != 128 || len(s.cands) != 129 {
		t.Fatal("ensure shrank the buffers")
	}
}

// TestSearchResultsSurviveScratchReuse pins the caller-ownership contract:
// results returned by Search must not be clobbered by a later search with
// the same Scratch.
func TestSearchResultsSurviveScratchReuse(t *testing.T) {
	peps := []string{"PEPTIDEK", "PEPTIDER", "AAAAGGGGK"}
	ix, err := Build(peps, noModParams())
	if err != nil {
		t.Fatal(err)
	}
	var scratch Scratch
	first, _ := ix.Search(queryFor(t, "PEPTIDEK"), 0, &scratch)
	snapshot := append([]Match(nil), first...)
	ix.Search(queryFor(t, "AAAAGGGGK"), 0, &scratch)
	for i := range first {
		if first[i] != snapshot[i] {
			t.Fatalf("match %d mutated by scratch reuse: %+v vs %+v", i, first[i], snapshot[i])
		}
	}
}

// TestSortMatchesDeterminism pins the ordering contract directly:
// descending score, ties broken by ascending row id.
func TestSortMatchesDeterminism(t *testing.T) {
	ms := []Match{
		{Row: 7, Score: 2.5},
		{Row: 3, Score: 9.0},
		{Row: 9, Score: 2.5},
		{Row: 1, Score: 2.5},
		{Row: 4, Score: 5.0},
	}
	sortMatches(ms)
	want := []uint32{3, 4, 1, 7, 9}
	for i, m := range ms {
		if m.Row != want[i] {
			t.Fatalf("order %v, want rows %v", ms, want)
		}
	}
}
