package slm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// withRowView builds ix's row view and fails the test if it could not.
func withRowView(t *testing.T, ix *Index) *Index {
	t.Helper()
	if err := ix.BuildRowView(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ix
}

// searchBothWays searches q on ix, which has its row view, once with the
// view and once with it absent, and fails unless both searches agree on
// the matches in emission order (at topK 0) and after the cut at topK 5,
// and on every Work field. It returns the viewed search's Work.
func searchBothWays(t *testing.T, label string, ix *Index, q spectrum.Experimental, scratch *Scratch) Work {
	t.Helper()
	got, gw := ix.SearchCut(q, 0, scratch)
	top, _ := ix.Search(q, 5, scratch)
	view := ix.view.Swap(nil)
	want, ww := ix.SearchCut(q, 0, scratch)
	wantTop, _ := ix.Search(q, 5, scratch)
	ix.view.Store(view)
	if !slices.Equal(got, want) || gw != ww {
		t.Fatalf("%s topK 0: row scan %+v %+v, per-bucket walk %+v %+v", label, got, gw, want, ww)
	}
	if !slices.Equal(top, wantTop) {
		t.Fatalf("%s topK 5: row scan %+v, per-bucket walk %+v", label, top, wantTop)
	}
	return gw
}

// TestRowScanMatchesWalk holds the row scan to the per-bucket walk it
// replaces in cut bands: for every tolerance TestWindowedScanMatchesFilteredOpen
// covers, on indexes cut into bands of the format's size and of 1 to 8
// rows, a search with the row view and one without it give the same
// matches in the same emission order and the same Work, and the viewed
// search is the open search filtered by the window (requireFilteredOpen).
// Where windows cut bands, a view whose rows hold no bucket the queries
// reach must change some answer's Work: the scan really ran.
func TestRowScanMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	all := randPeptides(rng, 50)
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	// Every band costs a row of ~200 000 offsets, so the indexes of
	// bands of a few rows hold the first 12 peptides only.
	type layout struct {
		peps []string
		rule func(int) int
	}
	layouts := []layout{{all, bandRows}}
	for band := 1; band <= 8; band++ {
		layouts = append(layouts, layout{all[:12], func(int) int { return band }})
	}
	var scratch Scratch
	for _, l := range layouts {
		peps, rule := l.peps, l.rule
		params.PrecursorTol = mass.Open()
		open, err := build(peps, params, 0, rule)
		if err != nil {
			t.Fatal(err)
		}
		params.PrecursorTol = mass.Da(0.5)
		narrow, err := build(peps, params, 0, rule)
		if err != nil {
			t.Fatal(err)
		}
		withRowView(t, narrow)
		withRowView(t, open)
		if narrow.view.Load() == nil || open.view.Load() != nil || open.NeedsRowView() {
			t.Fatalf("bands of %d rows: the 0.5 Da index built a row view: %v, the open one: %v",
				narrow.bandRows, narrow.view.Load() != nil, open.view.Load() != nil)
		}
		for _, tol := range []mass.Tolerance{
			mass.Da(0.01), mass.Da(0.5), mass.Da(3.0),
			mass.Ppm(10), mass.Ppm(500),
			mass.Da(1e7),
			mass.Open(),
		} {
			ix := open
			if !tol.IsOpen() {
				ix = withTolerance(narrow, tol)
			}
			var queries []spectrum.Experimental
			for range 12 {
				queries = append(queries, noisyQuery(rng, peps[rng.Intn(len(peps))]))
			}
			for i, q := range queries {
				label := fmt.Sprintf("tol %v, bands of %d rows, query %d", tol, ix.bandRows, i)
				searchBothWays(t, label, ix, q, &scratch)
				requireFilteredOpen(t, label, ix, open, q)
			}

			// A view that puts every posting in a bucket beyond every
			// peak's reach: a scanning search finds nothing there. No
			// window cuts a band of one row, or a band of an index it
			// covers whole.
			if ix.view.Load() == nil || ix.bandRows == 1 || tol == mass.Da(1e7) {
				continue
			}
			if !readsView(ix, queries, &scratch) {
				t.Fatalf("tol %v, bands of %d rows: no search read the row view", tol, ix.bandRows)
			}
		}
	}
}

// withTolerance returns ix searched under the bounded tolerance tol: the
// same rows, postings, prefix row and row view — a tolerance changes no byte of an
// index but its header's — without a build per tolerance.
func withTolerance(ix *Index, tol mass.Tolerance) *Index {
	params := ix.params
	params.PrecursorTol = tol
	out := &Index{params: params, rows: ix.rows, offsets: ix.offsets, ids: ix.ids, numBuckets: ix.numBuckets, bandRows: ix.bandRows, cum: ix.cum}
	out.view.Store(ix.view.Load())
	return out
}

// readsView reports whether searching some query of qs on ix, which has
// its row view, reads that view: whether its Work changes when the view
// is swapped for one whose rows hold only the last bucket, which no peak
// of a peptide ladder reaches.
func readsView(ix *Index, qs []spectrum.Experimental, scratch *Scratch) bool {
	view := ix.view.Load()
	blind := &rowView{start: view.start, buckets: make([]uint32, len(view.buckets))}
	for i := range blind.buckets {
		blind.buckets[i] = uint32(ix.numBuckets - 1)
	}
	defer ix.view.Store(view)
	for _, q := range qs {
		ix.view.Store(view)
		_, w := ix.SearchCut(q, 0, scratch)
		ix.view.Store(blind)
		if _, bw := ix.SearchCut(q, 0, scratch); bw != w {
			return true
		}
	}
	return false
}

// TestRowScanZeroAllocWarmScratch extends the warm zero-alloc guard to
// the row scan: its bitset, candidate keys and hit pairs grow once, and a
// warm search allocates only the result copy.
func TestRowScanZeroAllocWarmScratch(t *testing.T) {
	params := noModParams()
	params.PrecursorTol = mass.Da(0.5)
	ix, err := Build([]string{"PEPTIDEK", "PEPTIDER", "PEPTIDEH", "AAAAGGGGK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	withRowView(t, ix)
	if !readsView(ix, []spectrum.Experimental{queryFor(t, "PEPTIDEK")}, &Scratch{}) {
		t.Fatal("the guarded search does not read the row view")
	}
	warmSearchAllocs(t, "row scan", ix, true)
}

// TestBuildRowViewTransposes pins the view to its definition on an index
// of bands of 3 rows: row r's entries are the buckets whose lists hold r,
// once per posting, ascending, at the NumIons prefix sum of the rows
// before r.
func TestBuildRowViewTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	params.PrecursorTol = mass.Da(0.5)
	ix, err := build(randPeptides(rng, 20), params, 0, func(int) int { return 3 })
	if err != nil {
		t.Fatal(err)
	}
	if !ix.NeedsRowView() {
		t.Fatal("a fresh bounded-tolerance index needs no row view")
	}
	withRowView(t, ix)
	view := ix.view.Load()
	want := make([][]uint32, ix.NumRows())
	for k := range ix.numBands() {
		off := ix.offsets[k*(ix.numBuckets+1):]
		for b := range ix.numBuckets {
			for _, id := range ix.ids[off[b]:off[b+1]] {
				r := k*ix.bandRows + int(id)
				want[r] = append(want[r], uint32(b))
			}
		}
	}
	sum := uint32(0)
	for r, row := range ix.rows {
		if view.start[r] != sum {
			t.Fatalf("row %d starts at %d, want %d", r, view.start[r], sum)
		}
		sum += uint32(row.NumIons)
		if got := view.buckets[view.start[r]:view.start[r+1]]; !slices.Equal(got, want[r]) {
			t.Fatalf("row %d buckets %v, want %v", r, got, want[r])
		}
	}
	if ix.NeedsRowView() {
		t.Fatal("an index with a published view still needs one")
	}
}

// TestBuildRowViewStops: a cancelled build publishes nothing and says
// why, a corrupt store does not open for one to be built, and Close
// drops a view.
func TestBuildRowViewStops(t *testing.T) {
	params := noModParams()
	params.PrecursorTol = mass.Da(0.5)
	ix, err := Build([]string{"PEPTIDEK", "PEPTIDER", "AAAAGGGGK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ix.BuildRowView(ctx); !errors.Is(err, context.Canceled) || !ix.NeedsRowView() {
		t.Fatalf("cancelled build: %v, view published %v", err, !ix.NeedsRowView())
	}

	image := indexBytes(t, ix)
	image[len(image)-1] ^= 0xFF // a posting byte: the ids section's CRC fails
	path := filepath.Join(t.TempDir(), "corrupt.slmx")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if mapped, err := OpenIndexMapped(path); err == nil {
		mapped.Close()
		t.Fatal("a corrupt store opened, so a row view could be built over it")
	}

	good, err := OpenIndexMapped(saveTestIndex(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	withRowView(t, good)
	good.Close()
	if good.view.Load() != nil {
		t.Fatal("Close kept the row view")
	}
}

// TestRowViewPublishesUnderSearch builds an index's row view while other
// goroutines search it, each with its own Scratch, as a session's
// workers do while its background build runs: every search, before,
// during or after the publication, gives the answer and Work of a search
// without the view.
func TestRowViewPublishesUnderSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	peps := randPeptides(rng, 40)
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	params.PrecursorTol = mass.Da(0.5)
	ix, err := build(peps, params, 0, func(int) int { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		matches []Match
		work    Work
	}
	queries := make([]spectrum.Experimental, 16)
	want := make([]answer, len(queries))
	for i := range queries {
		queries[i] = noisyQuery(rng, peps[rng.Intn(len(peps))])
		want[i].matches, want[i].work = ix.SearchCut(queries[i], 0, nil)
	}
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch Scratch
			for round := range 20 {
				for i, q := range queries {
					got, w := ix.SearchCut(q, 0, &scratch)
					if !slices.Equal(got, want[i].matches) || w != want[i].work {
						t.Errorf("searcher %d round %d query %d: %+v %+v, want %+v %+v", g, round, i, got, w, want[i].matches, want[i].work)
						return
					}
				}
			}
		}()
	}
	withRowView(t, ix)
	wg.Wait()
	if !readsView(ix, queries, &Scratch{}) {
		t.Fatal("no query reads the row view; the test checks nothing")
	}
}
