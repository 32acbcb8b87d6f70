// Package spectrum generates theoretical MS/MS spectra from peptide
// sequences and models experimental spectra, including the preprocessing
// (top-N peak extraction, normalization) applied before querying.
//
// Theoretical spectra follow the standard CID fragmentation model used by
// SLM-Transform and MSFragger: the singly protonated b- and y-ion series.
// A peptide of length L yields 2*(L-1) fragment ions.
package spectrum

import (
	"fmt"
	"sort"

	"lbe/internal/mass"
	"lbe/internal/mods"
)

// Theoretical holds the fragment-ion m/z values of one peptide (or peptide
// variant), sorted ascending, together with the precursor neutral mass.
type Theoretical struct {
	Precursor float64   // neutral peptide mass (Da), including mod deltas
	Ions      []float64 // sorted fragment ion m/z (charge 1)
}

// NumIons returns the number of fragment ions.
func (t Theoretical) NumIons() int { return len(t.Ions) }

// Predict computes the theoretical spectrum of the unmodified peptide seq:
// all b- and y-ions at charge 1, sorted ascending. It returns an error if
// seq is shorter than 2 residues or contains non-standard letters.
func Predict(seq string) (Theoretical, error) {
	return PredictVariant(seq, mods.Variant{}, nil)
}

// PredictVariant computes the theoretical spectrum of a modified peptide
// variant over the paper's b and y series. Site deltas shift every
// fragment ion containing the modified residue: b-ions with index > pos
// and y-ions covering the C-terminal side. modList supplies the mass
// deltas referenced by v.Sites.
func PredictVariant(seq string, v mods.Variant, modList []mods.Mod) (Theoretical, error) {
	return PredictIons(seq, v, modList, DefaultSeries())
}

// PredictIons computes the theoretical spectrum of a (possibly modified)
// peptide over the requested ion series, sorted ascending. kinds must be
// non-empty; duplicate kinds are an error.
func PredictIons(seq string, v mods.Variant, modList []mods.Mod, kinds []IonKind) (Theoretical, error) {
	if err := ValidateSeries(kinds); err != nil {
		return Theoretical{}, err
	}
	var f Fragmenter
	if err := f.Reset(seq); err != nil {
		return Theoretical{}, err
	}
	ions, precursor, err := f.AppendIons(make([]float64, 0, len(kinds)*(len(seq)-1)), v, modList, kinds)
	if err != nil {
		return Theoretical{}, err
	}
	sort.Float64s(ions)
	return Theoretical{Precursor: precursor, Ions: ions}, nil
}

// Fragmenter is the one fragment-ion generator: it writes the ions of a
// peptide's variants, unsorted, into caller-owned buffers. Reset validates
// and loads a peptide once; AppendIons then runs per variant and, once the
// Fragmenter's buffers have grown to the longest peptide, allocates
// nothing. The zero value is ready to use; a Fragmenter is not safe for
// concurrent use.
type Fragmenter struct {
	seq  string
	base []float64 // residue masses of seq
	res  []float64 // base plus the current variant's site deltas
}

// Reset makes seq the peptide later AppendIons calls fragment. It returns
// an error if seq is shorter than 2 residues or contains non-standard
// letters.
func (f *Fragmenter) Reset(seq string) error {
	if len(seq) < 2 {
		return fmt.Errorf("spectrum: peptide %q too short to fragment", seq)
	}
	if !mass.ValidSequence(seq) {
		return fmt.Errorf("spectrum: peptide %q has non-standard residues", seq)
	}
	f.seq = seq
	f.base = f.base[:0]
	for i := 0; i < len(seq); i++ {
		f.base = append(f.base, mass.MustResidue(seq[i]))
	}
	return nil
}

// AppendIons appends the fragment m/z values of variant v of the Reset
// peptide to dst, series by series in kinds order and unsorted, and
// returns the extended dst with the variant's neutral precursor mass.
// kinds must pass ValidateSeries; modList supplies the deltas v.Sites
// reference, and a site out of range for either is an error.
//
// Every ion is computed by the same float operations in the same order
// whatever the series set, so a value here is bit-identical to the one
// PredictIons sorts.
func (f *Fragmenter) AppendIons(dst []float64, v mods.Variant, modList []mods.Mod, kinds []IonKind) ([]float64, float64, error) {
	n := len(f.base)
	res := append(f.res[:0], f.base...)
	f.res = res
	for _, s := range v.Sites {
		if s.Pos < 0 || s.Pos >= n {
			return dst, 0, fmt.Errorf("spectrum: mod site %d out of range for %q", s.Pos, f.seq)
		}
		if s.Mod < 0 || s.Mod >= len(modList) {
			return dst, 0, fmt.Errorf("spectrum: mod index %d out of range", s.Mod)
		}
		res[s.Pos] += modList[s.Mod].Delta
	}
	total := mass.Water
	for _, r := range res {
		total += r
	}

	// Each series walks the n-1 split points itself — prefix: the neutral
	// mass of res[:i+1]; suffix: that of res[i:] plus water — so no prefix
	// or suffix array is kept.
	for _, k := range kinds {
		prefix, suffix := 0.0, 0.0
		switch k {
		case IonB:
			for _, r := range res[:n-1] {
				prefix += r
				dst = append(dst, prefix+mass.Proton)
			}
		case IonY:
			for i := n - 1; i >= 1; i-- {
				suffix += res[i]
				s := suffix + mass.Water
				dst = append(dst, s+mass.Proton)
			}
		case IonA:
			for _, r := range res[:n-1] {
				prefix += r
				if a := prefix - carbonMonoxide + mass.Proton; a > 0 {
					dst = append(dst, a)
				}
			}
		case IonB2:
			for _, r := range res[:n-1] {
				prefix += r
				dst = append(dst, (prefix+2*mass.Proton)/2)
			}
		case IonY2:
			for i := n - 1; i >= 1; i-- {
				suffix += res[i]
				s := suffix + mass.Water
				dst = append(dst, (s+2*mass.Proton)/2)
			}
		}
	}
	return dst, total, nil
}

// BIon returns the m/z of the singly charged b_k ion (k residues from the
// N-terminus) of the unmodified peptide seq. k must be in [1, len(seq)-1].
func BIon(seq string, k int) float64 {
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += mass.MustResidue(seq[i])
	}
	return sum + mass.Proton
}

// YIon returns the m/z of the singly charged y_k ion (k residues from the
// C-terminus) of the unmodified peptide seq. k must be in [1, len(seq)-1].
func YIon(seq string, k int) float64 {
	sum := 0.0
	for i := len(seq) - k; i < len(seq); i++ {
		sum += mass.MustResidue(seq[i])
	}
	return sum + mass.Water + mass.Proton
}
