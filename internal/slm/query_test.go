package slm

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// TestPreparedQueryAcrossShards searches one prepared Query against
// indexes of different bucket counts, as a session searches it against
// every shard: a short-peptide index whose last bucket one peak's span
// straddles and another's starts past, and a long-peptide index that
// holds both spans whole. Each index is searched heap-built and mapped,
// without and with its row view, in bands of the format's size and of 3
// rows. On each, SearchQuery must give the index's own search (its own
// preparation of the spectrum): the match set, the top-5 cut, and every
// Work field; and the matches must be BruteForce's.
func TestPreparedQueryAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	params.PrecursorTol = mass.Da(0.5)
	const shared = "PEPTIDEK"
	short := []string{shared, "AGLK", "GASK", "SEAK", "VTGR"}
	long := append([]string{shared}, randPeptides(rng, 20)...)
	for i := range long[1:] {
		long[1+i] += "WWWWWWK" // heavy y ions: a higher last bucket
	}

	var indexes []*Index
	var peptides [][]string
	for _, peps := range [][]string{short, long} {
		for _, rule := range []func(int) int{bandRows, func(int) int { return 3 }} {
			ix, err := build(peps, params, 0, rule)
			if err != nil {
				t.Fatal(err)
			}
			indexes, peptides = append(indexes, ix), append(peptides, peps)
		}
	}
	small, large := indexes[0].numBuckets, indexes[2].numBuckets
	if large <= small+100 {
		t.Fatalf("bucket counts %d and %d: the long peptides reach no further", small, large)
	}

	// The shared peptide's ladder, one peak centred on the small index's
	// last bucket and one 50 buckets past it.
	e := noisyQuery(rng, shared)
	bucketer := mass.NewBucketer(params.Resolution)
	straddle, past := float64(small-1)*params.Resolution, float64(small+50)*params.Resolution
	e.Peaks = append(e.Peaks, spectrum.Peak{MZ: straddle, Intensity: 40}, spectrum.Peak{MZ: past, Intensity: 60})
	e.SortPeaks()
	if lo, hi := bucketer.Range(straddle, params.FragmentTol); lo >= small || hi < small {
		t.Fatalf("peak at %v spans buckets [%d, %d]: it does not straddle bucket %d", straddle, lo, hi, small-1)
	}
	if lo, hi := bucketer.Range(past, params.FragmentTol); lo < small || hi >= large {
		t.Fatalf("peak at %v spans buckets [%d, %d]: not past %d and inside %d", past, lo, hi, small, large)
	}
	var q Query
	q.Prepare(e, params)

	var scratch Scratch
	byRow := func(a, b Match) int { return cmp.Compare(a.Row, b.Row) }
	for i, built := range indexes {
		brute, err := BruteForce(peptides[i], params, e)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(brute, byRow)
		if len(brute) == 0 {
			t.Fatalf("index %d: the query matches nothing; the test checks nothing", i)
		}
		mapped, err := OpenIndexMapped(saveTestIndex(t, built))
		if err != nil {
			t.Fatal(err)
		}
		if err := mapped.Verify(); err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{built, mapped} {
			for _, viewed := range []bool{false, true} {
				if viewed {
					withRowView(t, ix)
				}
				label := fmt.Sprintf("%d buckets in bands of %d, mapped %v, row view %v", ix.numBuckets, ix.bandRows, ix == mapped, viewed)
				for _, k := range []int{0, 5} {
					got, gw := ix.SearchQuery(&q, k, &scratch)
					want, ww := searchCut(ix, e, k, &scratch)
					if !sameMatchSet(got, want) || gw != ww {
						t.Fatalf("%s, k=%d: prepared query %+v %+v, own search %+v %+v", label, k, got, gw, want, ww)
					}
					if k == 0 {
						if !slices.Equal(got, brute) {
							t.Fatalf("%s: prepared query %+v, brute force %+v", label, got, brute)
						}
					}
				}
			}
		}
		mapped.Close()
	}
}
