package slm

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lbe/internal/spectrum"
)

// cutReference is cutTopK by definition: sort the scores, read the k-th
// best, keep everything scoring at least that, in the original order.
func cutReference(ms []Match, k int) []Match {
	if k <= 0 || len(ms) <= k {
		return ms
	}
	scores := make([]float64, len(ms))
	for i, m := range ms {
		scores[i] = m.Score
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	var kept []Match
	for _, m := range ms {
		if m.Score >= scores[k-1] {
			kept = append(kept, m)
		}
	}
	return kept
}

// TestCutTopKMatchesSortReference: for random score multisets drawn from
// few distinct values (so ties straddle the cut all the time) and every k
// around the list's length, the heap-selected cut equals the sorted
// definition, keeps order, and reuses one Scratch throughout.
func TestCutTopKMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s Scratch
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(40)
		distinct := 1 + rng.Intn(6)
		ms := make([]Match, n)
		for i := range ms {
			ms[i] = Match{Row: uint32(i), Score: float64(rng.Intn(distinct))}
		}
		for _, k := range []int{-1, 0, 1, 2, n / 2, n - 1, n, n + 1, math.MaxInt} {
			want := append([]Match(nil), cutReference(ms, k)...)
			got := s.cutTopK(append([]Match(nil), ms...), k)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("n=%d k=%d scores %v: cut kept %v, want %v", n, k, ms, got, want)
			}
		}
	}
}

// searchCut is the scheduler's search of one cell: e prepared under ix's
// parameters and searched with SearchQuery, every match scoring at least
// the k-th best, unordered.
func searchCut(ix *Index, e spectrum.Experimental, k int, scratch *Scratch) ([]Match, Work) {
	var q Query
	q.Prepare(e, ix.params)
	return ix.SearchQuery(&q, k, scratch)
}

// sameMatchSet reports whether a and b hold the same matches, whatever
// their order; each is sorted by row in place.
func sameMatchSet(a, b []Match) bool {
	byRow := func(x, y Match) int { return cmp.Compare(x.Row, y.Row) }
	slices.SortFunc(a, byRow)
	slices.SortFunc(b, byRow)
	return slices.Equal(a, b)
}

// TestSearchCutAgreesWithSearch ties the two entry points together on a
// real index: SearchQuery(k) is the set of Search(0) cut by definition,
// and sorting and truncating it gives Search(k) — so a merge that only
// ever reads the best k cannot tell the cut from the full answer.
func TestSearchCutAgreesWithSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	peps := randPeptides(rng, 80)
	peps = append(peps, peps[:20]...) // duplicate peptides: exact score ties
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	ix, err := Build(peps, params)
	if err != nil {
		t.Fatal(err)
	}
	var scratch Scratch
	cutSomething := false
	for i := 0; i < 30; i++ {
		q := noisyQuery(rng, peps[rng.Intn(len(peps))])
		all, wantWork := ix.Search(q, 0, &scratch)
		for _, k := range []int{0, 1, 3, 10} {
			cut, work := searchCut(ix, q, k, &scratch)
			if work != wantWork {
				t.Fatalf("k=%d: work %+v, want %+v (the cut must not change the work units)", k, work, wantWork)
			}
			if want := slices.Clone(cutReference(all, k)); !sameMatchSet(slices.Clone(cut), want) {
				t.Fatalf("k=%d: SearchQuery kept %d matches, want %d", k, len(cut), len(want))
			}
			cutSomething = cutSomething || len(cut) < len(all)
			top, _ := ix.Search(q, k, &scratch)
			sortMatches(cut)
			if k > 0 && len(cut) > k {
				cut = cut[:k]
			}
			if k > 0 && !reflect.DeepEqual(cut, top) {
				t.Fatalf("k=%d: best k of the cut differ from Search(k)", k)
			}
		}
	}
	if !cutSomething {
		t.Fatal("no query had more matches than k; the test is vacuous")
	}
}
