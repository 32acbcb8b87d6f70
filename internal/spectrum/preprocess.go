package spectrum

import "slices"

// Preprocess mirrors the paper's query preprocessing (§V-A3): keep the
// topN most intense peaks (the paper uses 100), then re-sort by m/z and
// normalize intensities to [0, 1] relative to the base peak.
//
// It returns a new Experimental; the input is not modified.
func Preprocess(e Experimental, topN int) Experimental {
	return PreprocessInto(nil, e, topN)
}

// PreprocessInto is Preprocess writing the result's peaks into dst's
// backing array, which it grows if it is too short: a caller that
// preprocesses one spectrum after another reuses one buffer. The result
// aliases that array, so it is valid until dst is reused; e is not
// modified. With dst long enough it does not allocate.
//
// Both sorts are slices.SortFunc with comparators negative exactly where
// sort.Slice's `>` intensity and `<` m/z comparisons are true. pdqsort
// asks only that question, so the sorts make sort.Slice's swaps: the
// same peaks survive a top-N cut through tied intensities, in the same
// order.
func PreprocessInto(dst []Peak, e Experimental, topN int) Experimental {
	out := e
	out.Peaks = append(dst[:0], e.Peaks...)

	if topN > 0 && len(out.Peaks) > topN {
		// Select the topN by intensity.
		slices.SortFunc(out.Peaks, byIntensityDesc)
		out.Peaks = out.Peaks[:topN]
	}
	slices.SortFunc(out.Peaks, byMZ)

	// Base-peak normalization.
	maxI := 0.0
	for _, p := range out.Peaks {
		if p.Intensity > maxI {
			maxI = p.Intensity
		}
	}
	if maxI > 0 {
		for i := range out.Peaks {
			out.Peaks[i].Intensity /= maxI
		}
	}
	return out
}

// PreprocessAll applies Preprocess to every spectrum.
func PreprocessAll(es []Experimental, topN int) []Experimental {
	out := make([]Experimental, len(es))
	for i, e := range es {
		out[i] = Preprocess(e, topN)
	}
	return out
}
