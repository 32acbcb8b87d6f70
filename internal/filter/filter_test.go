package filter

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

func queryFromPeptide(t testing.TB, seq string) spectrum.Experimental {
	t.Helper()
	th, err := spectrum.Predict(seq)
	if err != nil {
		t.Fatal(err)
	}
	q := spectrum.Experimental{PrecursorMZ: mass.MZ(th.Precursor, 1), Charge: 1}
	for _, ion := range th.Ions {
		q.Peaks = append(q.Peaks, spectrum.Peak{MZ: ion, Intensity: 1})
	}
	q.SortPeaks()
	return q
}

func TestPrecursorFilterWindow(t *testing.T) {
	peps := []string{"PEPTIDEK", "PEPTIDEKK", "AAAAGGGGK", "PEPTIDER"}
	f, err := NewPrecursor(peps, mass.Da(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "precursor-mass" {
		t.Errorf("name = %q", f.Name())
	}
	q := queryFromPeptide(t, "PEPTIDEK")
	got := f.Candidates(q)
	// Only PEPTIDEK itself is within 0.5 Da (K vs R differ by ~28 Da).
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("candidates = %v, want [0]", got)
	}
}

func TestPrecursorFilterOpen(t *testing.T) {
	peps := []string{"PEPTIDEK", "AAAAGGGGK"}
	f, err := NewPrecursor(peps, mass.Open())
	if err != nil {
		t.Fatal(err)
	}
	got := f.Candidates(queryFromPeptide(t, "PEPTIDEK"))
	if len(got) != 2 {
		t.Errorf("open filter must return everything, got %v", got)
	}
}

func TestPrecursorFilterMissesModified(t *testing.T) {
	// The §II-A1 failure mode: a +114 Da (GlyGly) shifted precursor falls
	// outside the window of its true peptide.
	peps := []string{"PEPTIDEK"}
	f, _ := NewPrecursor(peps, mass.Da(0.5))
	q := queryFromPeptide(t, "PEPTIDEK")
	q.PrecursorMZ += 114.04293
	if got := f.Candidates(q); len(got) != 0 {
		t.Errorf("modified query should find no candidates, got %v", got)
	}
}

func TestPrecursorFilterMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	const alpha = "ACDEFGHIKLMNPQRSTVWY"
	randPep := func() string {
		var sb strings.Builder
		for i := 0; i < rng.Intn(12)+6; i++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return sb.String()
	}
	f := func(nRaw uint8, tolRaw uint8) bool {
		n := int(nRaw%40) + 1
		peps := make([]string, n)
		for i := range peps {
			peps[i] = randPep()
		}
		tol := mass.Da(float64(tolRaw) + 1)
		fl, err := NewPrecursor(peps, tol)
		if err != nil {
			return false
		}
		q := queryFromPeptide(t, peps[rng.Intn(n)])
		got := fl.Candidates(q)
		var want []int
		qm := q.PrecursorMass()
		for i, seq := range peps {
			if tol.Contains(qm, mass.MustPeptide(seq)) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExtractTagsPerfectLadder(t *testing.T) {
	// A pure b-ion ladder of PEPTIDE (b1..b6): the five gaps spell
	// E,P,T,I,D, so the length-3 tags are EPT, PTI, TID.
	seq := "PEPTIDE"
	var peaks []spectrum.Peak
	for k := 1; k < len(seq); k++ {
		peaks = append(peaks, spectrum.Peak{MZ: spectrum.BIon(seq, k), Intensity: 1})
	}
	q := spectrum.Experimental{Peaks: peaks}
	q.SortPeaks()
	tags := ExtractTags(q, 3, 0.02)
	want := map[string]bool{}
	for _, tag := range tags {
		want[tag] = true
	}
	for _, sub := range []string{"EPT", "PTI", "TID"} {
		if !want[sub] {
			t.Errorf("tag %q not extracted (got %v)", sub, tags)
		}
	}
	// Reversed forms are also emitted (y-ladder reading).
	for _, rev := range []string{"TPE", "ITP", "DIT"} {
		if !want[rev] {
			t.Errorf("reversed tag %q missing (got %v)", rev, tags)
		}
	}
}

func TestExtractTagsMixedSeries(t *testing.T) {
	// A realistic query with interleaved b- and y-ions must still yield
	// tags: each series forms a ladder inside the spectrum graph.
	q := queryFromPeptide(t, "PEPTIDEK")
	tags := ExtractTags(q, 3, 0.02)
	if len(tags) == 0 {
		t.Fatal("no tags from a mixed b/y spectrum")
	}
	// At least one tag must be a substring of the peptide or its reverse.
	found := false
	rev := "KEDITPEP"
	for _, tag := range tags {
		if strings.Contains("PEPTIDEK", tag) || strings.Contains(rev, tag) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no extracted tag matches the source peptide: %v", tags)
	}
}

func TestExtractTagsIsobaricLeucine(t *testing.T) {
	// A gap equal to the L/I residue mass must produce tags with both.
	base := 500.0
	m := mass.MustResidue('L')
	q := spectrum.Experimental{Peaks: []spectrum.Peak{
		{MZ: base, Intensity: 1},
		{MZ: base + m, Intensity: 1},
		{MZ: base + 2*m, Intensity: 1},
		{MZ: base + 3*m, Intensity: 1},
	}}
	tags := ExtractTags(q, 3, 0.02)
	seen := map[string]bool{}
	for _, tag := range tags {
		seen[tag] = true
	}
	if !seen["LLL"] || !seen["III"] || !seen["LIL"] {
		t.Errorf("isobaric expansion incomplete: %v", tags)
	}
}

func TestExtractTagsTooFewPeaks(t *testing.T) {
	q := spectrum.Experimental{Peaks: []spectrum.Peak{{MZ: 100, Intensity: 1}}}
	if tags := ExtractTags(q, 3, 0.02); tags != nil {
		t.Errorf("tags from 1 peak: %v", tags)
	}
}

func TestTagFilterFindsPeptide(t *testing.T) {
	peps := []string{"PEPTIDEK", "AAAAGGGGK", "WWYYFFLLK"}
	f, err := NewTag(peps, DefaultTagConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "sequence-tag" {
		t.Errorf("name = %q", f.Name())
	}
	got := f.Candidates(queryFromPeptide(t, "PEPTIDEK"))
	found := false
	for _, pi := range got {
		if pi == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("true peptide not among tag candidates %v", got)
	}
}

func TestTagFilterSurvivesModification(t *testing.T) {
	// Shift the precursor (unknown mod): tag filtration still finds the
	// peptide because local gap structure away from the mod is intact.
	peps := []string{"PEPTIDEK", "AAAAGGGGK"}
	f, _ := NewTag(peps, DefaultTagConfig())
	q := queryFromPeptide(t, "PEPTIDEK")
	q.PrecursorMZ += 114.04293
	got := f.Candidates(q)
	found := false
	for _, pi := range got {
		if pi == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("tag filter lost the modified peptide: %v", got)
	}
}

func TestTagFilterErrors(t *testing.T) {
	if _, err := NewTag([]string{"AXB"}, DefaultTagConfig()); err == nil {
		t.Error("invalid residues must fail")
	}
	if _, err := NewTag([]string{"AAA"}, TagConfig{K: 0, GapTol: 0.02}); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := NewTag([]string{"AAA"}, TagConfig{K: 3, GapTol: 0}); err == nil {
		t.Error("zero gap tolerance must fail")
	}
}

func TestTagCandidatesSortedUniqueProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	const alpha = "ACDEFGHIKLMNPQRSTVWY"
	peps := make([]string, 30)
	for i := range peps {
		var sb strings.Builder
		for j := 0; j < rng.Intn(10)+6; j++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		peps[i] = sb.String()
	}
	f, err := NewTag(peps, DefaultTagConfig())
	if err != nil {
		t.Fatal(err)
	}
	prop := func(pick uint8) bool {
		q := queryFromPeptide(t, peps[int(pick)%len(peps)])
		got := f.Candidates(q)
		if !sort.IntsAreSorted(got) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				return false
			}
		}
		for _, pi := range got {
			if pi < 0 || pi >= len(peps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
