package slm

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

func TestQuantizeIntensityEdgeCases(t *testing.T) {
	// Zero or empty queries quantize everything to zero with zero scales.
	if s, inv := quantScales(0); s != 0 || inv != 0 {
		t.Errorf("quantScales(0) = %v, %v; want 0, 0", s, inv)
	}
	scale, invScale := quantScales(2.0)
	if got := quantizeIntensity(2.0, scale); got != intensityQuantLevels {
		t.Errorf("max intensity quantizes to %d, want %d", got, intensityQuantLevels)
	}
	if got := quantizeIntensity(0, scale); got != 0 {
		t.Errorf("zero intensity quantizes to %d, want 0", got)
	}
	// Round half up at the level boundary: 1.5 levels rounds to 2.
	if got := quantizeIntensity(1.5*invScale, scale); got != 2 {
		t.Errorf("1.5 levels quantizes to %d, want 2", got)
	}
	// A value epsilon above the maximum (float noise) clamps, not wraps.
	if got := quantizeIntensity(2.0*(1+1e-12), scale); got != intensityQuantLevels {
		t.Errorf("slightly-over-max intensity quantizes to %d, want clamp", got)
	}
}

// TestQuantizedScoreBounded pins the quantization error budget: each
// posting hit contributes at most half a quantization level of intensity
// error, and Log1p is 1-Lipschitz, so a match's score may deviate from
// the exact float-accumulated score by at most shared/2 levels.
func TestQuantizedScoreBounded(t *testing.T) {
	ix := buildTestIndex(t)
	for _, pep := range []string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK"} {
		q := queryFor(t, pep)

		maxI := 0.0
		for _, p := range q.Peaks {
			if p.Intensity > maxI {
				maxI = p.Intensity
			}
		}
		_, invScale := quantScales(maxI)

		matches, _ := ix.Search(q, 0, nil)
		if len(matches) == 0 {
			t.Fatalf("%s: no matches", pep)
		}
		for _, m := range matches {
			// Recompute the exact float intensity sum for this row from
			// its band's postings.
			k := int(m.Row) / ix.bandRows
			off := ix.offsets[k*(ix.numBuckets+1):]
			exact := 0.0
			for _, p := range q.Peaks {
				blo, bhi := ix.bucketSpan(p.MZ)
				for i := off[blo]; i < off[bhi+1]; i++ {
					if int(ix.ids[i]) == int(m.Row)-k*ix.bandRows {
						exact += p.Intensity
					}
				}
			}
			want := hyperscore(m.Shared, exact, int(ix.Row(m.Row).NumIons))
			bound := 0.5*invScale*float64(m.Shared) + 1e-9
			if diff := math.Abs(m.Score - want); diff > bound {
				t.Errorf("%s row %d: quantized score %v vs exact %v, |diff| %v > bound %v",
					pep, m.Row, m.Score, want, diff, bound)
			}
		}
	}
}

// TestQuantizeScratchReuse: growing and reusing a Query's span buffer
// across differently-sized spectra must keep each preparation
// independent of the one before.
func TestQuantizeScratchReuse(t *testing.T) {
	params := DefaultParams()
	var q Query
	big := spectrum.Experimental{Peaks: make([]spectrum.Peak, 300)}
	for i := range big.Peaks {
		big.Peaks[i] = spectrum.Peak{MZ: float64(i + 100), Intensity: float64(i%7) / 7}
	}
	q.Prepare(big, params)
	small := spectrum.Experimental{Peaks: []spectrum.Peak{{MZ: 100, Intensity: 0.25}, {MZ: 200, Intensity: 0.5}}}
	q.Prepare(small, params)
	if len(q.spans) != len(small.Peaks) {
		t.Fatalf("%d spans, want %d", len(q.spans), len(small.Peaks))
	}
	if level := uint16(q.spans[1].add); level != intensityQuantLevels {
		t.Errorf("strongest peak = %d levels, want %d", level, intensityQuantLevels)
	}
	if got := float64(uint16(q.spans[0].add)) * q.invScale; math.Abs(got-0.25) > 0.5*q.invScale {
		t.Errorf("dequantized %v, want ~0.25", got)
	}
}

// TestAccumulatorBounds walks the packed accumulator's stated limits at
// their boundary: a row hit once by every admitted peak at full intensity.
// Up to maxQueryPeaks peaks are admitted and the rest ignored; at exactly
// 65 536 hits × 65 535 levels the intensity half is full but has not
// carried into the count; and Match.Shared saturates instead of wrapping.
func TestAccumulatorBounds(t *testing.T) {
	ix, err := Build([]string{"PEPTIDEK"}, noModParams())
	if err != nil {
		t.Fatal(err)
	}
	th, err := spectrum.Predict("PEPTIDEK")
	if err != nil {
		t.Fatal(err)
	}
	mz := th.Ions[2]
	if blo, bhi := ix.bucketSpan(mz); ix.offsets[bhi+1]-ix.offsets[blo] != 1 {
		t.Fatalf("the probe peak hits %d postings, want exactly 1", ix.offsets[bhi+1]-ix.offsets[blo])
	}

	for _, tc := range []struct {
		peaks, admitted int
		shared          uint16
	}{
		{4, 4, 4},
		{math.MaxUint16, math.MaxUint16, math.MaxUint16},
		{maxQueryPeaks, maxQueryPeaks, math.MaxUint16},     // 65 536 hits: Shared saturates
		{maxQueryPeaks + 1, maxQueryPeaks, math.MaxUint16}, // one peak too many: ignored
		{70000, maxQueryPeaks, math.MaxUint16},
	} {
		q := spectrum.Experimental{PrecursorMZ: mass.MZ(th.Precursor, 1), Charge: 1}
		q.Peaks = make([]spectrum.Peak, tc.peaks)
		for i := range q.Peaks {
			q.Peaks[i] = spectrum.Peak{MZ: mz, Intensity: 3}
		}
		var scratch Scratch
		ms, work := ix.Search(q, 0, &scratch)
		if work.IonHits != int64(tc.admitted) {
			t.Errorf("%d peaks: %d postings visited, want %d admitted peaks of one posting each", tc.peaks, work.IonHits, tc.admitted)
		}
		if len(ms) != 1 || ms[0].Shared != tc.shared {
			t.Fatalf("%d peaks: matches %+v, want one with Shared %d", tc.peaks, ms, tc.shared)
		}
		// Every peak quantizes to the top level, so the exact sum is
		// admitted × 65 535 — 2³² − 65 536 at the boundary.
		_, invScale := quantScales(3)
		sum := uint64(tc.admitted) * intensityQuantLevels
		if sum > math.MaxUint32 {
			t.Fatalf("%d admitted peaks overflow the intensity half: the admission bound is wrong", tc.admitted)
		}
		want := hyperscore(tc.shared, float64(sum)*invScale, int(ix.Row(ms[0].Row).NumIons))
		if ms[0].Score != want {
			t.Errorf("%d peaks: score %v, want %v (count %d, exact intensity sum %d)", tc.peaks, ms[0].Score, want, tc.admitted, sum)
		}
		for i, a := range scratch.acc {
			if a != 0 {
				t.Fatalf("%d peaks: accumulator word %d left at %#x", tc.peaks, i, a)
			}
		}
	}
}

// TestCandidatesCrossThresholdOnce holds phase 1's candidate list to its
// definition: a row is listed once, at the posting that lifts its count
// to MinSharedPeaks. At threshold 1 (crossing is first touch), 4 and 6,
// on queries with every other peak tripled and 0.6 Da fragment windows,
// which carry rows several postings past the threshold, and at a
// threshold no row reaches, Work.Candidates and the match rows are
// BruteForce's rows sharing at least the threshold, each once.
func TestCandidatesCrossThresholdOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	peps := randPeptides(rng, 40)
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	params.FragmentTol = mass.Da(0.6)
	byRow := func(a, b Match) int { return cmp.Compare(a.Row, b.Row) }
	var scratch Scratch
	for _, minShared := range []int{1, 4, 6, 1000} {
		params.MinSharedPeaks = minShared
		ix, err := Build(peps, params)
		if err != nil {
			t.Fatal(err)
		}
		total, past := 0, 0 // candidates, and those whose count ends past the threshold
		for trial := 0; trial < 8; trial++ {
			q := noisyQuery(rng, peps[rng.Intn(len(peps))])
			for i, n := 0, len(q.Peaks); i < n; i += 2 {
				q.Peaks = append(q.Peaks, q.Peaks[i], q.Peaks[i])
			}
			q.SortPeaks()
			label := fmt.Sprintf("threshold %d, trial %d", minShared, trial)
			got, w := ix.Search(q, 0, &scratch)
			want, err := BruteForce(peps, params, q)
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(got, byRow)
			slices.SortFunc(want, byRow)
			if w.Candidates != int64(len(want)) || !slices.Equal(got, want) {
				t.Fatalf("%s: %d candidates, matches %+v; brute force %+v", label, w.Candidates, got, want)
			}
			total += len(want)
			for _, m := range want {
				if int(m.Shared) > minShared+1 {
					past++
				}
			}
		}
		if minShared == 1000 && total != 0 {
			t.Errorf("threshold %d: %d rows reached it, want none", minShared, total)
		}
		if minShared < 1000 && past == 0 {
			t.Errorf("threshold %d: no row passed it by several postings", minShared)
		}
	}
}
