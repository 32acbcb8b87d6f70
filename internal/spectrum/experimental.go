package spectrum

import (
	"fmt"
	"slices"
)

// Peak is one (m/z, intensity) pair of an experimental spectrum.
type Peak struct {
	MZ        float64
	Intensity float64
}

// Experimental is one query MS/MS spectrum as read from an MS2/mzML file:
// scan metadata plus the peak list.
type Experimental struct {
	Scan          int     // scan number
	PrecursorMZ   float64 // observed precursor m/z
	Charge        int     // assumed precursor charge (0 if unknown)
	RetentionTime float64 // seconds, 0 if unknown
	Peaks         []Peak
}

// PrecursorMass returns the neutral precursor mass implied by the observed
// m/z and charge. With unknown charge it assumes 1.
func (e Experimental) PrecursorMass() float64 {
	z := e.Charge
	if z <= 0 {
		z = 1
	}
	return neutral(e.PrecursorMZ, z)
}

func neutral(mz float64, z int) float64 {
	const proton = 1.00727646688
	return mz*float64(z) - float64(z)*proton
}

// Validate reports structural problems: unsorted peaks, negative values.
func (e Experimental) Validate() error {
	if e.PrecursorMZ < 0 {
		return fmt.Errorf("spectrum: scan %d has negative precursor m/z", e.Scan)
	}
	for i, p := range e.Peaks {
		if p.MZ < 0 || p.Intensity < 0 {
			return fmt.Errorf("spectrum: scan %d peak %d has negative value", e.Scan, i)
		}
		if i > 0 && p.MZ < e.Peaks[i-1].MZ {
			return fmt.Errorf("spectrum: scan %d peaks not sorted at %d", e.Scan, i)
		}
	}
	return nil
}

// SortPeaks orders the peak list by ascending m/z in place, without
// allocating. Peaks of equal m/z land in the order sort.Slice with a
// `<` comparison gives them: the comparator is negative exactly when
// a.MZ < b.MZ, and "is it negative" is the only question pdqsort asks,
// so both run the same swaps.
func (e *Experimental) SortPeaks() {
	slices.SortFunc(e.Peaks, byMZ)
}

// byMZ orders peaks by ascending m/z; it is negative exactly when
// a.MZ < b.MZ.
func byMZ(a, b Peak) int {
	switch {
	case a.MZ < b.MZ:
		return -1
	case a.MZ > b.MZ:
		return 1
	}
	return 0
}

// byIntensityDesc orders peaks by descending intensity; it is negative
// exactly when a.Intensity > b.Intensity.
func byIntensityDesc(a, b Peak) int {
	switch {
	case a.Intensity > b.Intensity:
		return -1
	case a.Intensity < b.Intensity:
		return 1
	}
	return 0
}
