package slm

import (
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// requireFilteredOpen checks one query on a narrow-tolerance index
// against an open-tolerance index over the same peptides: the windowed
// matches are the open matches PrecursorTol.Contains admits, as a set at
// topK 0 and after sortMatches plus the cut at topK 5, and the windowed
// scan visits or prunes every posting the open scan visits. It returns
// the windowed matches sorted by row.
func requireFilteredOpen(t *testing.T, label string, win, open *Index, q spectrum.Experimental) []Match {
	t.Helper()
	tol := win.Params().PrecursorTol
	all, wo := open.Search(q, 0, nil)
	var want []Match
	for _, m := range all {
		if tol.Contains(q.PrecursorMass(), m.Precursor) {
			want = append(want, m)
		}
	}
	got, wa := win.Search(q, 0, nil)
	if !sameMatchSet(got, want) {
		t.Fatalf("%s topK 0: windowed %+v, filtered open %+v", label, got, want)
	}
	if wa.IonHits+wa.Pruned != wo.IonHits {
		t.Fatalf("%s: windowed IonHits %d + Pruned %d != open IonHits %d", label, wa.IonHits, wa.Pruned, wo.IonHits)
	}
	if wa.Scored != int64(len(want)) || wo.Pruned != 0 {
		t.Fatalf("%s: windowed Scored %d for %d admitted matches, open Pruned %d", label, wa.Scored, len(want), wo.Pruned)
	}
	top, _ := win.Search(q, 5, nil)
	cut := slices.Clone(want)
	sortMatches(cut)
	if len(cut) > 5 {
		cut = cut[:5]
	}
	if !slices.Equal(top, cut) {
		t.Fatalf("%s topK 5: windowed %+v, filtered open %+v", label, top, cut)
	}
	return got
}

// TestWindowedScanMatchesFilteredOpen is the core property of the
// precursor-windowed kernel: for every tolerance — narrow, ppm-relative,
// wider than the indexed mass range, and open itself — a search returns
// the open search's matches the tolerance admits, and exactly the matches
// of the index-free slm.BruteForce.
func TestWindowedScanMatchesFilteredOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	peps := randPeptides(rng, 50)
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	params.PrecursorTol = mass.Open()
	open, err := Build(peps, params)
	if err != nil {
		t.Fatal(err)
	}
	byRow := func(a, b Match) int { return cmp.Compare(a.Row, b.Row) }
	for _, tol := range []mass.Tolerance{
		mass.Da(0.01), mass.Da(0.5), mass.Da(3.0),
		mass.Ppm(10), mass.Ppm(500),
		mass.Da(1e7), // wider than any indexed mass range
		mass.Open(),
	} {
		params.PrecursorTol = tol
		win, err := Build(peps, params)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			q := noisyQuery(rng, peps[rng.Intn(len(peps))])
			label := fmt.Sprintf("tol %+v trial %d", tol, trial)
			got := requireFilteredOpen(t, label, win, open, q)
			slices.SortFunc(got, byRow)
			want, err := BruteForce(peps, params, q)
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(want, byRow)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: windowed %+v, brute force %+v", label, got, want)
			}
		}
	}
}

// TestWindowedScanPrunes asserts the windowed scan actually skips work at
// a narrow tolerance on a corpus with spread-out precursor masses — the
// point of the layout, not just its safety.
func TestWindowedScanPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	peps := randPeptides(rng, 80)
	params := DefaultParams()
	params.PrecursorTol = mass.Da(0.5)
	ix, err := Build(peps, params)
	if err != nil {
		t.Fatal(err)
	}
	var total Work
	for trial := 0; trial < 20; trial++ {
		_, w := ix.Search(noisyQuery(rng, peps[rng.Intn(len(peps))]), 0, nil)
		total.Add(w)
	}
	if total.Pruned == 0 {
		t.Error("narrow tolerance on a spread corpus pruned nothing")
	}
	if total.Pruned < total.IonHits {
		t.Logf("pruned %d vs visited %d (corpus-dependent; informational)", total.Pruned, total.IonHits)
	}
}

// TestWindowedScanMappedMatchesFilteredOpen runs the same property on a
// mapped store: the zero-copy rows view must window exactly as the heap
// index that wrote the file.
func TestWindowedScanMappedMatchesFilteredOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	peps := randPeptides(rng, 40)
	params := DefaultParams()
	params.PrecursorTol = mass.Open()
	open, err := Build(peps, params)
	if err != nil {
		t.Fatal(err)
	}
	params.PrecursorTol = mass.Da(0.5)
	ix, err := Build(peps, params)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "win.slm")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenIndexMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if err := mapped.Verify(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		requireFilteredOpen(t, fmt.Sprintf("trial %d", trial), mapped, open, noisyQuery(rng, peps[rng.Intn(len(peps))]))
	}
}

// TestWindowedScanAcrossBandEdges holds the same properties where the
// banded layout makes them hard: on indexes cut into bands of 4 rows, a
// window inside one band, one straddling a band edge, one admitting one
// whole band and nothing else, and one cutting two bands with whole bands
// between them. Each window admits exactly its intended rows, and every
// query matches something there.
func TestWindowedScanAcrossBandEdges(t *testing.T) {
	const band = 4
	rule := func(int) int { return band }
	rng := rand.New(rand.NewSource(137))
	peps := randPeptides(rng, 60)
	params := noModParams()
	open, err := build(peps, params, 0, rule)
	if err != nil {
		t.Fatal(err)
	}
	rows := open.rows
	for _, tc := range []struct {
		name        string
		first, last int // the rows the window admits, inclusive
	}{
		{"inside band 3", 3*band + 1, 3*band + 2},
		{"straddling bands 3 and 4", 4*band - 1, 4 * band},
		{"band 4 whole", 4 * band, 5*band - 1},
		{"cutting bands 3 and 7 around 4-6", 3*band + 2, 8*band - 2},
	} {
		lo, hi := rows[tc.first].Precursor, rows[tc.last].Precursor
		gap := min(lo-rows[tc.first-1].Precursor, rows[tc.last+1].Precursor-hi)
		if gap <= 0 {
			t.Fatalf("%s: rows %d..%d share a precursor with a neighbour", tc.name, tc.first, tc.last)
		}
		params.PrecursorTol = mass.Da((hi-lo)/2 + gap/4)
		win, err := build(peps, params, 0, rule)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			q := noisyQuery(rng, peps[rows[tc.first+rng.Intn(tc.last-tc.first+1)].Peptide])
			q.PrecursorMZ = mass.MZ((lo+hi)/2, 1)
			label := fmt.Sprintf("%s trial %d", tc.name, trial)
			if rlo, rhi := win.precursorWindow(q.PrecursorMass()); int(rlo) != tc.first || int(rhi) != tc.last+1 {
				t.Fatalf("%s: window admits rows [%d, %d), want [%d, %d]", label, rlo, rhi, tc.first, tc.last)
			}
			if got := requireFilteredOpen(t, label, win, open, q); len(got) == 0 {
				t.Fatalf("%s: no match; the case checks nothing", label)
			}
			if _, w := win.Search(q, 0, nil); w.IonHits != windowPostings(open, q, tc.first, tc.last+1) {
				t.Fatalf("%s: IonHits %d, want the %d postings of the window's rows", label, w.IonHits, windowPostings(open, q, tc.first, tc.last+1))
			}
		}
	}
}

// windowPostings counts the postings q's peaks reach in ix whose row lies
// in [rlo, rhi): what a windowed scan visits, no more and no less.
func windowPostings(ix *Index, q spectrum.Experimental, rlo, rhi int) int64 {
	var n int64
	for _, p := range q.Peaks {
		blo, bhi := ix.bucketSpan(p.MZ)
		if blo > bhi {
			continue
		}
		for k := range ix.numBands() {
			off := ix.offsets[k*(ix.numBuckets+1):]
			for _, id := range ix.ids[off[blo]:off[bhi+1]] {
				if row := k*ix.bandRows + int(id); rlo <= row && row < rhi {
					n++
				}
			}
		}
	}
	return n
}

// TestScratchCleanAfterSearch holds the invariant every later search
// rests on: phase 2 clears only the precursor window's rows, so those
// must be all the rows phase 1 reaches. One Scratch runs an open search,
// windows inside one band, straddling a band edge and spanning whole
// bands, an empty window and a query with no peaks, on indexes cut into
// bands of 4 rows; after each its accumulator is all zero, and its answer
// and Work are a fresh Scratch's.
func TestScratchCleanAfterSearch(t *testing.T) {
	const band = 4
	rule := func(int) int { return band }
	rng := rand.New(rand.NewSource(139))
	peps := randPeptides(rng, 60)
	params := noModParams()
	open, err := build(peps, params, 0, rule)
	if err != nil {
		t.Fatal(err)
	}
	rows := open.rows
	var scratch Scratch
	search := func(label string, ix *Index, q spectrum.Experimental, wantHits bool) {
		t.Helper()
		got, gw := ix.Search(q, 0, &scratch)
		for i, a := range scratch.acc {
			if a != 0 {
				t.Fatalf("%s: accumulator word %d left at %#x", label, i, a)
			}
		}
		want, ww := ix.Search(q, 0, nil)
		if !slices.Equal(got, want) || gw != ww {
			t.Fatalf("%s: warm scratch %+v %+v, fresh scratch %+v %+v", label, got, gw, want, ww)
		}
		if wantHits && gw.Candidates == 0 {
			t.Fatalf("%s: no candidate; the case checks nothing", label)
		}
	}

	search("open", open, noisyQuery(rng, peps[0]), true)
	for _, tc := range []struct {
		name        string
		first, last int // the rows the window admits, inclusive
	}{
		{"inside band 3", 3*band + 1, 3*band + 2},
		{"straddling bands 3 and 4", 4*band - 1, 4 * band},
		{"bands 4 to 6 whole", 4 * band, 7*band - 1},
	} {
		lo, hi := rows[tc.first].Precursor, rows[tc.last].Precursor
		gap := min(lo-rows[tc.first-1].Precursor, rows[tc.last+1].Precursor-hi)
		if gap <= 0 {
			t.Fatalf("%s: rows %d..%d share a precursor with a neighbour", tc.name, tc.first, tc.last)
		}
		params.PrecursorTol = mass.Da((hi-lo)/2 + gap/4)
		win, err := build(peps, params, 0, rule)
		if err != nil {
			t.Fatal(err)
		}
		q := noisyQuery(rng, peps[rows[tc.first].Peptide])
		q.PrecursorMZ = mass.MZ((lo+hi)/2, 1)
		if rlo, rhi := win.precursorWindow(q.PrecursorMass()); int(rlo) != tc.first || int(rhi) != tc.last+1 {
			t.Fatalf("%s: window admits rows [%d, %d), want [%d, %d]", tc.name, rlo, rhi, tc.first, tc.last)
		}
		search(tc.name, win, q, true)
		search(tc.name+", then open", open, noisyQuery(rng, peps[rows[tc.last].Peptide]), true)

		if tc.first == 4*band {
			// Below every row, the same window admits none.
			q.PrecursorMZ = mass.MZ(rows[0].Precursor-3*(hi-lo)-gap, 1)
			if rlo, rhi := win.precursorWindow(q.PrecursorMass()); rlo != rhi {
				t.Fatalf("empty window: admits rows [%d, %d)", rlo, rhi)
			}
			search("empty window", win, q, false)
		}
	}
	search("no peaks", open, spectrum.Experimental{PrecursorMZ: mass.MZ(rows[0].Precursor, 1), Charge: 1}, false)
}
