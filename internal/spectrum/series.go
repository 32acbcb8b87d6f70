package spectrum

import (
	"fmt"

	"lbe/internal/mass"
)

// IonKind identifies a fragment-ion series. The CID model of the paper's
// pipeline indexes singly charged b and y ions; a ions (b minus CO) and
// doubly charged series are common instrument realities offered as
// configuration.
type IonKind uint8

const (
	// IonB is the singly protonated b series (N-terminal prefixes).
	IonB IonKind = iota
	// IonY is the singly protonated y series (C-terminal suffixes).
	IonY
	// IonA is the a series: b minus carbon monoxide.
	IonA
	// IonB2 is the doubly charged b series.
	IonB2
	// IonY2 is the doubly charged y series.
	IonY2
)

// String implements fmt.Stringer.
func (k IonKind) String() string {
	switch k {
	case IonB:
		return "b"
	case IonY:
		return "y"
	case IonA:
		return "a"
	case IonB2:
		return "b2+"
	case IonY2:
		return "y2+"
	default:
		return fmt.Sprintf("IonKind(%d)", uint8(k))
	}
}

// DefaultSeries is the paper's model: singly charged b and y ions.
func DefaultSeries() []IonKind { return []IonKind{IonB, IonY} }

// carbonMonoxide is the a-ion offset below the b ion.
const carbonMonoxide = mass.Carbon + mass.Oxygen

// ValidateSeries reports whether kinds is a usable ion series: non-empty,
// known kinds only, none twice.
func ValidateSeries(kinds []IonKind) error {
	if len(kinds) == 0 {
		return fmt.Errorf("spectrum: no ion series requested")
	}
	var seen uint8
	for _, k := range kinds {
		if k > IonY2 {
			return fmt.Errorf("spectrum: unknown ion kind %d", k)
		}
		if seen&(1<<k) != 0 {
			return fmt.Errorf("spectrum: duplicate ion kind %v", k)
		}
		seen |= 1 << k
	}
	return nil
}
