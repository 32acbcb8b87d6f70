package slm

import (
	"cmp"
	"slices"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// BruteForce searches q against the same peptide set and parameters with
// no index: every row's theoretical ions are compared against every query
// peak through the same bucket discretization. It exists as a correctness
// oracle for tests and for the filtration-efficiency ablation; results
// must equal Index.Search exactly (modulo match order), Match.Row included:
// rows are numbered by place in (precursor, enumeration) order, as an
// index numbers them.
func BruteForce(peptides []string, params Params, q spectrum.Experimental) ([]Match, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	bucketer := mass.NewBucketer(params.Resolution)
	qmass := q.PrecursorMass()
	capB := params.capBucket()

	// Mirror the index kernel's intensity quantization exactly — same
	// u16 levels, same integer accumulation, same single dequantization —
	// so the oracle and Index.Search produce bit-identical scores.
	maxI := 0.0
	for _, p := range q.Peaks {
		if p.Intensity > maxI {
			maxI = p.Intensity
		}
	}
	scale, invScale := quantScales(maxI)
	qint := make([]uint16, len(q.Peaks))
	for i, p := range q.Peaks {
		qint[i] = quantizeIntensity(p.Intensity, scale)
	}

	var matches []Match
	var masses []float64 // every row's precursor, in enumeration order
	for pi, seq := range peptides {
		variants, err := params.Mods.Variants(seq)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			th, err := spectrum.PredictIons(seq, v, params.Mods.Mods, params.series())
			if err != nil {
				return nil, err
			}
			// Mirror the index: only ions within the scan range exist.
			var ions []float64
			for _, ion := range th.Ions {
				if bucketer.Bucket(ion) <= capB {
					ions = append(ions, ion)
				}
			}
			shared := 0
			var intenAcc uint32
			for qi, p := range q.Peaks {
				blo, bhi := bucketer.Range(p.MZ, params.FragmentTol)
				if bhi > capB {
					bhi = capB
				}
				hits := 0
				for _, ion := range ions {
					b := bucketer.Bucket(ion)
					if b >= blo && b <= bhi {
						hits++
					}
				}
				shared += hits
				intenAcc += uint32(qint[qi]) * uint32(hits)
			}
			if shared >= params.MinSharedPeaks &&
				params.PrecursorTol.Contains(qmass, th.Precursor) {
				matches = append(matches, Match{
					Row:       uint32(len(masses)), // enumeration order until renumbered below
					Peptide:   uint32(pi),
					Shared:    uint16(shared),
					Score:     hyperscore(uint16(shared), float64(intenAcc)*invScale, len(ions)),
					Precursor: th.Precursor,
				})
			}
			masses = append(masses, th.Precursor)
		}
	}
	order := make([]uint32, len(masses))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(masses[a], masses[b]), cmp.Compare(a, b))
	})
	place := make([]uint32, len(masses))
	for s, id := range order {
		place[id] = uint32(s)
	}
	for i := range matches {
		matches[i].Row = place[matches[i].Row]
	}
	return matches, nil
}
