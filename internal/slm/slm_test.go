package slm

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"lbe/internal/mass"
	"lbe/internal/mods"
	"lbe/internal/spectrum"
)

// noModParams returns params with modifications disabled and closed
// precursor window for precise unit tests.
func noModParams() Params {
	p := DefaultParams()
	p.Mods = mods.Config{MaxPerPep: 0}
	return p
}

// queryFor builds a query spectrum containing exactly the theoretical
// peaks of seq at unit intensity.
func queryFor(t *testing.T, seq string) spectrum.Experimental {
	t.Helper()
	th, err := spectrum.Predict(seq)
	if err != nil {
		t.Fatal(err)
	}
	q := spectrum.Experimental{
		Scan:        1,
		PrecursorMZ: mass.MZ(th.Precursor, 1),
		Charge:      1,
	}
	for _, ion := range th.Ions {
		q.Peaks = append(q.Peaks, spectrum.Peak{MZ: ion, Intensity: 1})
	}
	q.SortPeaks()
	return q
}

// bucketSpan returns the inclusive bucket range the fragment window
// around mz reaches in ix, clamped to the index; blo > bhi means none. It
// is the span Query.Prepare and SearchQuery resolve between them,
// computed here on its own for the tests that count postings by hand.
func (ix *Index) bucketSpan(mz float64) (blo, bhi int) {
	blo, bhi = mass.NewBucketer(ix.params.Resolution).Range(mz, ix.params.FragmentTol)
	return max(blo, 0), min(bhi, ix.numBuckets-1)
}

func TestBuildBasicShape(t *testing.T) {
	peps := []string{"PEPTIDEK", "AAAAGGGGK"}
	ix, err := Build(peps, noModParams())
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (no mods)", ix.NumRows())
	}
	if ix.NumPeptides() != 2 {
		t.Errorf("peptides = %d", ix.NumPeptides())
	}
	wantIons := 2*(8-1) + 2*(9-1)
	if ix.NumIons() != wantIons {
		t.Errorf("ions = %d, want %d", ix.NumIons(), wantIons)
	}
	if ix.MemoryBytes() <= 0 || ix.BuildPeakBytes() < ix.MemoryBytes() {
		t.Errorf("memory accounting: resident %d, peak %d", ix.MemoryBytes(), ix.BuildPeakBytes())
	}
}

func TestBuildWithModsRowCount(t *testing.T) {
	params := DefaultParams()
	peps := []string{"NQKCMAAR", "GGGGGGGK"}
	ix, err := Build(peps, params)
	if err != nil {
		t.Fatal(err)
	}
	want := params.Mods.Count("NQKCMAAR") + params.Mods.Count("GGGGGGGK")
	if ix.NumRows() != want {
		t.Errorf("rows = %d, want %d", ix.NumRows(), want)
	}
	// Unmodified rows and modified rows both present.
	mod, unmod := 0, 0
	for rid := uint32(0); rid < uint32(ix.NumRows()); rid++ {
		if ix.Row(rid).Modified() {
			mod++
		} else {
			unmod++
		}
	}
	if unmod != 2 {
		t.Errorf("unmodified rows = %d, want 2", unmod)
	}
	if mod != want-2 {
		t.Errorf("modified rows = %d, want %d", mod, want-2)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]string{"A"}, noModParams()); err == nil {
		t.Error("length-1 peptide must fail")
	}
	bad := noModParams()
	bad.Resolution = 0
	if _, err := Build([]string{"PEPTIDEK"}, bad); err == nil {
		t.Error("zero resolution must fail")
	}
	bad = noModParams()
	bad.MinSharedPeaks = 0
	if _, err := Build([]string{"PEPTIDEK"}, bad); err == nil {
		t.Error("zero shared-peak threshold must fail")
	}
}

func TestSearchFindsExactMatch(t *testing.T) {
	peps := []string{"PEPTIDEK", "AAAAGGGGK", "WWYYFFLLK"}
	ix, err := Build(peps, noModParams())
	if err != nil {
		t.Fatal(err)
	}
	q := queryFor(t, "PEPTIDEK")
	matches, work := ix.Search(q, 10, nil)
	if len(matches) == 0 {
		t.Fatal("no matches for exact query")
	}
	if matches[0].Peptide != 0 {
		t.Errorf("best match peptide = %d, want 0", matches[0].Peptide)
	}
	if int(matches[0].Shared) < 2*(8-1) {
		t.Errorf("shared = %d, want all %d ions", matches[0].Shared, 2*(8-1))
	}
	if work.IonHits <= 0 || work.Scored <= 0 {
		t.Errorf("work = %+v", work)
	}
}

func TestSearchThreshold(t *testing.T) {
	// A query with only 3 peaks cannot reach the Shpeak >= 4 threshold.
	peps := []string{"PEPTIDEK"}
	ix, _ := Build(peps, noModParams())
	q := queryFor(t, "PEPTIDEK")
	q.Peaks = q.Peaks[:3]
	matches, work := ix.Search(q, 0, nil)
	if len(matches) != 0 {
		t.Errorf("got %d matches below threshold", len(matches))
	}
	if work.Candidates != 0 {
		t.Errorf("candidates = %d, want 0", work.Candidates)
	}
}

func TestSearchPrecursorWindow(t *testing.T) {
	params := noModParams()
	params.PrecursorTol = mass.Da(0.1)
	peps := []string{"PEPTIDEK", "PEPTIDEKK"} // second is ~128 Da heavier
	ix, _ := Build(peps, params)
	q := queryFor(t, "PEPTIDEK")
	matches, _ := ix.Search(q, 0, nil)
	for _, m := range matches {
		if m.Peptide == 1 {
			t.Error("heavier peptide must be excluded by the precursor window")
		}
	}
	// Open search admits both (they share the b-ion series).
	params.PrecursorTol = mass.Open()
	ix2, _ := Build(peps, params)
	matches2, _ := ix2.Search(q, 0, nil)
	saw := map[uint32]bool{}
	for _, m := range matches2 {
		saw[m.Peptide] = true
	}
	if !saw[0] || !saw[1] {
		t.Errorf("open search matches = %v, want both peptides", saw)
	}
}

func TestSearchTopK(t *testing.T) {
	peps := []string{
		"PEPTIDEK", "PEPTIDER", "PEPTIDEH", "PEPTIDEW", "PEPTIDEY",
	}
	ix, _ := Build(peps, noModParams())
	q := queryFor(t, "PEPTIDEK")
	all, _ := ix.Search(q, 0, nil)
	top2, _ := ix.Search(q, 2, nil)
	if len(all) < 3 {
		t.Skipf("expected several matches, got %d", len(all))
	}
	if len(top2) != 2 {
		t.Fatalf("topK = %d results, want 2", len(top2))
	}
	if top2[0].Score < top2[1].Score {
		t.Error("topK results not in descending score order")
	}
	if top2[0].Peptide != 0 {
		t.Errorf("best = %d, want exact match 0", top2[0].Peptide)
	}
}

func TestScratchReuseResets(t *testing.T) {
	peps := []string{"PEPTIDEK", "AAAAGGGGK"}
	ix, _ := Build(peps, noModParams())
	var scratch Scratch
	q := queryFor(t, "PEPTIDEK")
	a, _ := ix.Search(q, 0, &scratch)
	b, _ := ix.Search(q, 0, &scratch)
	if len(a) != len(b) {
		t.Fatalf("reused scratch changed results: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("match %d differs after scratch reuse: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSearchAllAccumulatesWork(t *testing.T) {
	peps := []string{"PEPTIDEK", "AAAAGGGGK"}
	ix, _ := Build(peps, noModParams())
	qs := []spectrum.Experimental{queryFor(t, "PEPTIDEK"), queryFor(t, "AAAAGGGGK")}
	res, work := ix.SearchAll(qs, 5)
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	_, w0 := ix.Search(qs[0], 5, nil)
	_, w1 := ix.Search(qs[1], 5, nil)
	if work.IonHits != w0.IonHits+w1.IonHits {
		t.Errorf("work not accumulated: %+v vs %+v + %+v", work, w0, w1)
	}
}

const alphabet = "ACDEFGHIKLMNPQRSTVWY"

func randPeptide(rng *rand.Rand, minLen, maxLen int) string {
	n := rng.Intn(maxLen-minLen+1) + minLen
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// randPeptides draws n random 6–16-residue peptides.
func randPeptides(rng *rand.Rand, n int) []string {
	peps := make([]string, n)
	for i := range peps {
		peps[i] = randPeptide(rng, 6, 16)
	}
	return peps
}

// noisyQuery is seq's fragment ladder as an experimental spectrum: 85 % of
// the ions, each jittered by up to ±0.02 Da, with random intensities.
func noisyQuery(rng *rand.Rand, seq string) spectrum.Experimental {
	th, _ := spectrum.Predict(seq)
	q := spectrum.Experimental{PrecursorMZ: mass.MZ(th.Precursor, 1), Charge: 1}
	for _, ion := range th.Ions {
		if rng.Float64() < 0.85 {
			q.Peaks = append(q.Peaks, spectrum.Peak{
				MZ:        ion + (rng.Float64()-0.5)*0.04,
				Intensity: rng.Float64()*90 + 10,
			})
		}
	}
	q.SortPeaks()
	return q
}

// TestIndexMatchesBruteForce is the central correctness property: the CSR
// index query must produce exactly the matches of the quadratic reference.
func TestIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	params := DefaultParams()
	params.Mods.MaxPerPep = 2 // keep variant counts modest

	for trial := 0; trial < 30; trial++ {
		npep := rng.Intn(15) + 2
		peps := make([]string, npep)
		for i := range peps {
			peps[i] = randPeptide(rng, 6, 14)
		}
		ix, err := Build(peps, params)
		if err != nil {
			t.Fatal(err)
		}

		// Query: noisy version of a random peptide.
		target := peps[rng.Intn(npep)]
		th, _ := spectrum.Predict(target)
		q := spectrum.Experimental{
			Scan:        trial,
			PrecursorMZ: mass.MZ(th.Precursor, 1),
			Charge:      1,
		}
		for _, ion := range th.Ions {
			if rng.Float64() < 0.85 { // drop some peaks
				q.Peaks = append(q.Peaks, spectrum.Peak{
					MZ:        ion + (rng.Float64()-0.5)*0.04, // jitter within tol
					Intensity: rng.Float64()*99 + 1,
				})
			}
		}
		for j := 0; j < 5; j++ { // noise peaks
			q.Peaks = append(q.Peaks, spectrum.Peak{
				MZ:        rng.Float64() * 2000,
				Intensity: rng.Float64() * 10,
			})
		}
		q.SortPeaks()

		got, _ := ix.Search(q, 0, nil)
		want, err := BruteForce(peps, params, q)
		if err != nil {
			t.Fatal(err)
		}
		sortByRow := func(ms []Match) {
			sort.Slice(ms, func(i, j int) bool { return ms[i].Row < ms[j].Row })
		}
		sortByRow(got)
		sortByRow(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches vs brute force %d", trial, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Row != w.Row || g.Peptide != w.Peptide || g.Shared != w.Shared {
				t.Fatalf("trial %d match %d: got %+v, want %+v", trial, i, g, w)
			}
			if math.Abs(g.Score-w.Score) > 1e-9 {
				t.Fatalf("trial %d match %d: score %v vs %v", trial, i, g.Score, w.Score)
			}
		}
	}
}

func TestHyperscoreMonotonicity(t *testing.T) {
	f := func(sharedRaw uint8, intenRaw uint16) bool {
		shared := uint16(sharedRaw%60) + 1
		inten := float64(intenRaw) / 100
		base := hyperscore(shared, inten, 30)
		moreShared := hyperscore(shared+1, inten, 30)
		moreInten := hyperscore(shared, inten+1, 30)
		return moreShared > base && moreInten > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if hyperscore(0, 0, 10) != 0 {
		t.Error("zero shared must score 0")
	}
}

func TestLogFactorial(t *testing.T) {
	// Exact for small n.
	want := 0.0
	for n := 1; n < 128; n++ {
		want += math.Log(float64(n))
		if math.Abs(logFactorial(n)-want) > 1e-9 {
			t.Fatalf("logFactorial(%d) = %v, want %v", n, logFactorial(n), want)
		}
	}
	// Stirling branch accurate to <1e-6 relative at n=200.
	exact := 0.0
	for n := 1; n <= 200; n++ {
		exact += math.Log(float64(n))
	}
	if math.Abs(logFactorial(200)-exact)/exact > 1e-6 {
		t.Errorf("Stirling branch: %v vs %v", logFactorial(200), exact)
	}
}

func TestEmptyIndexSearch(t *testing.T) {
	ix, err := Build(nil, noModParams())
	if err != nil {
		t.Fatal(err)
	}
	q := spectrum.Experimental{Peaks: []spectrum.Peak{{MZ: 500, Intensity: 1}}}
	matches, work := ix.Search(q, 10, nil)
	if len(matches) != 0 || work.IonHits != 0 {
		t.Errorf("empty index returned %v, %+v", matches, work)
	}
}

func TestQueryPeakOutOfRange(t *testing.T) {
	ix, _ := Build([]string{"PEPTIDEK"}, noModParams())
	q := spectrum.Experimental{Peaks: []spectrum.Peak{
		{MZ: 1e6, Intensity: 1}, // beyond any bucket
		{MZ: 0, Intensity: 1},
	}}
	matches, _ := ix.Search(q, 0, nil)
	if len(matches) != 0 {
		t.Errorf("out-of-range peaks matched: %v", matches)
	}
}

func TestExtendedIonSeriesMatchesBruteForce(t *testing.T) {
	// The index/oracle equivalence must hold for every ion-series config.
	rng := rand.New(rand.NewSource(137))
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	params.IonSeries = []spectrum.IonKind{
		spectrum.IonB, spectrum.IonY, spectrum.IonA, spectrum.IonB2, spectrum.IonY2,
	}
	peps := make([]string, 8)
	for i := range peps {
		peps[i] = randPeptide(rng, 6, 12)
	}
	ix, err := Build(peps, params)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := queryFor(t, peps[rng.Intn(len(peps))])
		got, _ := ix.Search(q, 0, nil)
		want, err := BruteForce(peps, params, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d matches", trial, len(got), len(want))
		}
	}
}

func TestIonSeriesValidation(t *testing.T) {
	params := DefaultParams()
	params.IonSeries = []spectrum.IonKind{spectrum.IonB, spectrum.IonB}
	if _, err := Build([]string{"PEPTIDEK"}, params); err == nil {
		t.Error("duplicate ion series must fail validation")
	}
	params.IonSeries = []spectrum.IonKind{spectrum.IonKind(77)}
	if _, err := Build([]string{"PEPTIDEK"}, params); err == nil {
		t.Error("unknown ion series must fail validation")
	}
}

func TestSerializePreservesIonSeries(t *testing.T) {
	params := DefaultParams()
	params.Mods.MaxPerPep = 0
	params.IonSeries = []spectrum.IonKind{spectrum.IonB, spectrum.IonY, spectrum.IonA}
	ix, err := Build([]string{"PEPTIDEK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Params().IonSeries) != 3 || got.Params().IonSeries[2] != spectrum.IonA {
		t.Errorf("ion series not preserved: %v", got.Params().IonSeries)
	}
}
