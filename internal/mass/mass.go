// Package mass provides monoisotopic mass arithmetic for peptides and
// their fragment ions.
//
// All masses are in Daltons (Da, unified atomic mass units). The package
// follows standard proteomics conventions: a peptide's neutral mass is the
// sum of its residue masses plus one water; singly protonated ions add one
// proton mass.
package mass

import (
	"errors"
	"fmt"
)

// Fundamental monoisotopic constants (Da), CODATA/IUPAC values as used by
// mainstream search engines.
const (
	Proton   = 1.00727646688 // mass of H+
	Hydrogen = 1.0078250319  // mass of H atom
	Oxygen   = 15.9949146221 // mass of O atom
	Nitrogen = 14.0030740052
	Carbon   = 12.0
	Water    = 2*Hydrogen + Oxygen // ~18.0105646
	Ammonia  = Nitrogen + 3*Hydrogen
)

// residueMass holds the monoisotopic mass of each of the 20 standard amino
// acid residues (i.e. the amino acid minus water), indexed by letter 'A'-'Z'.
// Non-standard letters hold zero and are reported as invalid.
var residueMass = [26]float64{
	'A' - 'A': 71.03711381,
	'C' - 'A': 103.00918496, // cysteine, unmodified
	'D' - 'A': 115.02694302,
	'E' - 'A': 129.04259309,
	'F' - 'A': 147.06841391,
	'G' - 'A': 57.02146374,
	'H' - 'A': 137.05891186,
	'I' - 'A': 113.08406398,
	'K' - 'A': 128.09496302,
	'L' - 'A': 113.08406398,
	'M' - 'A': 131.04048509,
	'N' - 'A': 114.04292744,
	'P' - 'A': 97.05276388,
	'Q' - 'A': 128.05857751,
	'R' - 'A': 156.10111102,
	'S' - 'A': 87.03202841,
	'T' - 'A': 101.04767847,
	'V' - 'A': 99.06841391,
	'W' - 'A': 186.07931295,
	'Y' - 'A': 163.06332853,
}

// validResidue marks the 20 standard amino-acid letters.
var validResidue = func() (v [26]bool) {
	for _, r := range "ACDEFGHIKLMNPQRSTVWY" {
		v[r-'A'] = true
	}
	return
}()

// ErrInvalidResidue reports a non-standard amino-acid letter in a sequence.
var ErrInvalidResidue = errors.New("mass: invalid amino acid residue")

// ValidResidue reports whether b is one of the 20 standard amino-acid letters
// (upper case).
func ValidResidue(b byte) bool {
	return b >= 'A' && b <= 'Z' && validResidue[b-'A']
}

// Residue returns the monoisotopic residue mass of the amino-acid letter b.
// It returns ErrInvalidResidue for non-standard letters.
func Residue(b byte) (float64, error) {
	if !ValidResidue(b) {
		return 0, fmt.Errorf("%w: %q", ErrInvalidResidue, string(rune(b)))
	}
	return residueMass[b-'A'], nil
}

// MustResidue is like Residue but panics on invalid input. It is intended
// for callers that have already validated the sequence.
func MustResidue(b byte) float64 {
	m, err := Residue(b)
	if err != nil {
		panic(err)
	}
	return m
}

// ValidSequence reports whether every letter of seq is a standard residue.
// The empty sequence is valid.
func ValidSequence(seq string) bool {
	for i := 0; i < len(seq); i++ {
		if !ValidResidue(seq[i]) {
			return false
		}
	}
	return true
}

// Peptide returns the neutral monoisotopic mass of the peptide sequence:
// the sum of residue masses plus one water. It returns an error if seq
// contains a non-standard letter or is empty.
func Peptide(seq string) (float64, error) {
	if len(seq) == 0 {
		return 0, errors.New("mass: empty peptide sequence")
	}
	sum := Water
	for i := 0; i < len(seq); i++ {
		r, err := Residue(seq[i])
		if err != nil {
			return 0, fmt.Errorf("position %d: %w", i, err)
		}
		sum += r
	}
	return sum, nil
}

// MustPeptide is like Peptide but panics on invalid input.
func MustPeptide(seq string) float64 {
	m, err := Peptide(seq)
	if err != nil {
		panic(err)
	}
	return m
}

// MZ converts a neutral mass to the mass-to-charge ratio of the ion carrying
// `charge` protons. charge must be >= 1.
func MZ(neutral float64, charge int) float64 {
	z := float64(charge)
	return (neutral + z*Proton) / z
}
