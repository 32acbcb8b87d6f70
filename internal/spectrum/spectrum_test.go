package spectrum

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"lbe/internal/mass"
	"lbe/internal/mods"
)

func TestPredictIonCount(t *testing.T) {
	th, err := Predict("PEPTIDE")
	if err != nil {
		t.Fatal(err)
	}
	if th.NumIons() != 2*(7-1) {
		t.Errorf("got %d ions, want 12", th.NumIons())
	}
	if math.Abs(th.Precursor-mass.MustPeptide("PEPTIDE")) > 1e-9 {
		t.Errorf("precursor = %v", th.Precursor)
	}
	if !sort.Float64sAreSorted(th.Ions) {
		t.Error("ions not sorted")
	}
}

func TestPredictKnownIons(t *testing.T) {
	// b1 of PEPTIDE is P + proton; y1 is E + water + proton.
	th, _ := Predict("PEPTIDE")
	b1 := mass.MustResidue('P') + mass.Proton
	y1 := mass.MustResidue('E') + mass.Water + mass.Proton
	if !containsApprox(th.Ions, b1) {
		t.Errorf("b1 %.5f missing", b1)
	}
	if !containsApprox(th.Ions, y1) {
		t.Errorf("y1 %.5f missing", y1)
	}
	if math.Abs(BIon("PEPTIDE", 1)-b1) > 1e-9 {
		t.Errorf("BIon = %v", BIon("PEPTIDE", 1))
	}
	if math.Abs(YIon("PEPTIDE", 1)-y1) > 1e-9 {
		t.Errorf("YIon = %v", YIon("PEPTIDE", 1))
	}
}

func containsApprox(xs []float64, v float64) bool {
	for _, x := range xs {
		if math.Abs(x-v) < 1e-6 {
			return true
		}
	}
	return false
}

func TestPredictErrors(t *testing.T) {
	if _, err := Predict("A"); err == nil {
		t.Error("length-1 peptide must fail")
	}
	if _, err := Predict("AXA"); err == nil {
		t.Error("invalid residue must fail")
	}
}

func TestBYComplementarity(t *testing.T) {
	// b_k + y_{n-k} = precursor + 2*proton for every split point k.
	rng := rand.New(rand.NewSource(31))
	const alpha = "ACDEFGHIKLMNPQRSTVWY"
	f := func(n uint8) bool {
		L := int(n%30) + 2
		var sb strings.Builder
		for i := 0; i < L; i++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		seq := sb.String()
		th, err := Predict(seq)
		if err != nil {
			return false
		}
		for k := 1; k < L; k++ {
			sum := BIon(seq, k) + YIon(seq, L-k)
			if math.Abs(sum-(th.Precursor+2*mass.Proton)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPredictVariantShiftsIons(t *testing.T) {
	modList := []mods.Mod{mods.OxidationM}
	base, _ := Predict("AMAK")
	v := mods.Variant{Sites: []mods.Site{{Pos: 1, Mod: 0}}, Delta: mods.OxidationM.Delta}
	modded, err := PredictVariant("AMAK", v, modList)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(modded.Precursor-(base.Precursor+mods.OxidationM.Delta)) > 1e-9 {
		t.Errorf("precursor delta wrong: %v vs %v", modded.Precursor, base.Precursor)
	}
	// b1 = A only: unshifted. b2 = A+M(ox): shifted.
	if !containsApprox(modded.Ions, BIon("AMAK", 1)) {
		t.Error("b1 must be unshifted")
	}
	if !containsApprox(modded.Ions, BIon("AMAK", 2)+mods.OxidationM.Delta) {
		t.Error("b2 must be shifted by the mod delta")
	}
	// y1 = K: unshifted. y3 = MAK: shifted.
	if !containsApprox(modded.Ions, YIon("AMAK", 1)) {
		t.Error("y1 must be unshifted")
	}
	if !containsApprox(modded.Ions, YIon("AMAK", 3)+mods.OxidationM.Delta) {
		t.Error("y3 must be shifted by the mod delta")
	}
}

func TestPredictVariantBadSites(t *testing.T) {
	modList := []mods.Mod{mods.OxidationM}
	if _, err := PredictVariant("AMA", mods.Variant{Sites: []mods.Site{{Pos: 9, Mod: 0}}}, modList); err == nil {
		t.Error("out-of-range position must fail")
	}
	if _, err := PredictVariant("AMA", mods.Variant{Sites: []mods.Site{{Pos: 0, Mod: 3}}}, modList); err == nil {
		t.Error("out-of-range mod index must fail")
	}
}

func TestExperimentalPrecursorMass(t *testing.T) {
	e := Experimental{PrecursorMZ: 500.0, Charge: 2}
	want := 500.0*2 - 2*mass.Proton
	if math.Abs(e.PrecursorMass()-want) > 1e-9 {
		t.Errorf("PrecursorMass = %v, want %v", e.PrecursorMass(), want)
	}
	// Unknown charge treated as 1.
	e = Experimental{PrecursorMZ: 500.0}
	if math.Abs(e.PrecursorMass()-(500.0-mass.Proton)) > 1e-9 {
		t.Errorf("charge-0 PrecursorMass = %v", e.PrecursorMass())
	}
}

func TestExperimentalValidate(t *testing.T) {
	good := Experimental{Peaks: []Peak{{100, 1}, {200, 2}}}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := Experimental{Peaks: []Peak{{200, 1}, {100, 2}}}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted peaks must fail")
	}
	bad = Experimental{Peaks: []Peak{{-1, 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative m/z must fail")
	}
	bad = Experimental{PrecursorMZ: -5}
	if err := bad.Validate(); err == nil {
		t.Error("negative precursor must fail")
	}
}

func TestSortPeaks(t *testing.T) {
	e := Experimental{Peaks: []Peak{{300, 1}, {100, 2}, {200, 3}}}
	e.SortPeaks()
	if err := e.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSortPeaksMatchesSortSlice: ties keep the exact permutation the
// former sort.Slice implementation produced, so generated corpora and
// pinned answer digests do not move. Intensities tell tied peaks apart;
// sizes span pdqsort's insertion-sort, ninther and pattern-breaking
// regimes.
func TestSortPeaksMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 7, 12, 13, 33, 50, 129, 1000, 5000} {
		for _, distinct := range []int{1, 3, 17, n} {
			peaks := make([]Peak, n)
			for i := range peaks {
				peaks[i] = Peak{MZ: float64(100 + rng.Intn(distinct)), Intensity: float64(i)}
			}
			rng.Shuffle(n, func(i, j int) { peaks[i], peaks[j] = peaks[j], peaks[i] })
			want := append([]Peak(nil), peaks...)
			sort.Slice(want, func(i, j int) bool { return want[i].MZ < want[j].MZ })
			e := Experimental{Peaks: peaks}
			e.SortPeaks()
			for i := range want {
				if e.Peaks[i] != want[i] {
					t.Fatalf("n=%d distinct=%d: peak %d = %v, sort.Slice gives %v", n, distinct, i, e.Peaks[i], want[i])
				}
			}
		}
	}
}

// TestSortPeaksZeroAlloc: sorting runs on every /search request's decode
// path and must not allocate.
func TestSortPeaksZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := make([]Peak, 200)
	for i := range src {
		src[i] = Peak{MZ: rng.Float64() * 2000, Intensity: rng.Float64()}
	}
	e := Experimental{Peaks: make([]Peak, len(src))}
	if n := testing.AllocsPerRun(50, func() {
		copy(e.Peaks, src)
		e.SortPeaks()
	}); n != 0 {
		t.Errorf("SortPeaks allocates %.1f times per run, want 0", n)
	}
}

// preprocessSortSlice is PreprocessInto as it stood on sort.Slice: the
// reference whose top-N ties PreprocessInto must keep.
func preprocessSortSlice(e Experimental, topN int) Experimental {
	out := e
	out.Peaks = append([]Peak(nil), e.Peaks...)
	if topN > 0 && len(out.Peaks) > topN {
		sort.Slice(out.Peaks, func(i, j int) bool {
			return out.Peaks[i].Intensity > out.Peaks[j].Intensity
		})
		out.Peaks = out.Peaks[:topN]
	}
	sort.Slice(out.Peaks, func(i, j int) bool { return out.Peaks[i].MZ < out.Peaks[j].MZ })
	maxI := 0.0
	for _, p := range out.Peaks {
		maxI = max(maxI, p.Intensity)
	}
	if maxI > 0 {
		for i := range out.Peaks {
			out.Peaks[i].Intensity /= maxI
		}
	}
	return out
}

// TestPreprocessMatchesSortSlice: over seeded spectra whose peaks share a
// handful of intensities and m/z values — so a top-N cut goes through
// ties and equal m/z peaks keep some order — PreprocessInto gives the
// sort.Slice version's peaks in the same order, through one reused buffer.
func TestPreprocessMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var buf []Peak
	for trial := 0; trial < 2000; trial++ {
		e := Experimental{Peaks: make([]Peak, rng.Intn(300))}
		levels, sites := 1+rng.Intn(6), 1+rng.Intn(60)
		for i := range e.Peaks {
			e.Peaks[i] = Peak{
				MZ:        100 + float64(rng.Intn(sites))*0.5,
				Intensity: float64(1 + rng.Intn(levels)),
			}
			if rng.Intn(4) == 0 {
				e.Peaks[i].Intensity += float64(i) // some distinct ones among the ties
			}
		}
		topN := rng.Intn(120)
		want := preprocessSortSlice(e, topN)
		got := PreprocessInto(buf, e, topN)
		buf = got.Peaks
		if !slices.Equal(got.Peaks, want.Peaks) {
			t.Fatalf("trial %d (%d peaks, top %d):\n got  %v\n want %v", trial, len(e.Peaks), topN, got.Peaks, want.Peaks)
		}
	}
}

// TestPreprocessIntoZeroAlloc: with a buffer large enough, preprocessing a
// spectrum — cut to its top peaks or not — does not allocate.
func TestPreprocessIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := Experimental{Peaks: make([]Peak, 150)}
	for i := range e.Peaks {
		e.Peaks[i] = Peak{MZ: rng.Float64() * 2000, Intensity: float64(rng.Intn(20))}
	}
	buf := make([]Peak, len(e.Peaks))
	for _, topN := range []int{100, 200} {
		if n := testing.AllocsPerRun(50, func() {
			PreprocessInto(buf, e, topN)
		}); n != 0 {
			t.Errorf("top %d: PreprocessInto allocates %.1f times per run, want 0", topN, n)
		}
	}
}

func TestPreprocessTopN(t *testing.T) {
	e := Experimental{Peaks: []Peak{
		{100, 5}, {110, 50}, {120, 1}, {130, 100}, {140, 20},
	}}
	out := Preprocess(e, 3)
	if len(out.Peaks) != 3 {
		t.Fatalf("got %d peaks, want 3", len(out.Peaks))
	}
	// Survivors: intensities 100, 50, 20 -> m/z 110, 130, 140 sorted.
	wantMZ := []float64{110, 130, 140}
	for i, p := range out.Peaks {
		if p.MZ != wantMZ[i] {
			t.Errorf("peak %d mz = %v, want %v", i, p.MZ, wantMZ[i])
		}
	}
	// Normalized: base peak becomes 1.
	if out.Peaks[1].Intensity != 1.0 {
		t.Errorf("base peak intensity = %v", out.Peaks[1].Intensity)
	}
	if math.Abs(out.Peaks[0].Intensity-0.5) > 1e-12 {
		t.Errorf("peak intensity = %v, want 0.5", out.Peaks[0].Intensity)
	}
	// Input untouched.
	if e.Peaks[0].Intensity != 5 || len(e.Peaks) != 5 {
		t.Error("Preprocess must not mutate its input")
	}
}

func TestPreprocessFewerThanN(t *testing.T) {
	e := Experimental{Peaks: []Peak{{100, 2}, {200, 4}}}
	out := Preprocess(e, 100)
	if len(out.Peaks) != 2 {
		t.Errorf("got %d peaks", len(out.Peaks))
	}
	if out.Peaks[1].Intensity != 1 || out.Peaks[0].Intensity != 0.5 {
		t.Errorf("normalization wrong: %+v", out.Peaks)
	}
}

func TestPreprocessEmptyAndZeroIntensity(t *testing.T) {
	out := Preprocess(Experimental{}, 10)
	if len(out.Peaks) != 0 {
		t.Error("empty spectrum should stay empty")
	}
	out = Preprocess(Experimental{Peaks: []Peak{{100, 0}}}, 10)
	if out.Peaks[0].Intensity != 0 {
		t.Error("all-zero intensities must not be divided")
	}
}

func TestPreprocessAll(t *testing.T) {
	es := []Experimental{
		{Peaks: []Peak{{1, 1}, {2, 2}, {3, 3}}},
		{Peaks: []Peak{{1, 9}}},
	}
	out := PreprocessAll(es, 2)
	if len(out) != 2 || len(out[0].Peaks) != 2 || len(out[1].Peaks) != 1 {
		t.Errorf("PreprocessAll = %+v", out)
	}
}

func TestPreprocessProperty(t *testing.T) {
	// Output is sorted, at most topN peaks, intensities within [0,1].
	rng := rand.New(rand.NewSource(37))
	f := func(n, topRaw uint8) bool {
		e := Experimental{}
		for i := 0; i < int(n); i++ {
			e.Peaks = append(e.Peaks, Peak{
				MZ:        rng.Float64() * 2000,
				Intensity: rng.Float64() * 1e6,
			})
		}
		topN := int(topRaw%50) + 1
		out := Preprocess(e, topN)
		if len(out.Peaks) > topN {
			return false
		}
		for i, p := range out.Peaks {
			if p.Intensity < 0 || p.Intensity > 1 {
				return false
			}
			if i > 0 && p.MZ < out.Peaks[i-1].MZ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
