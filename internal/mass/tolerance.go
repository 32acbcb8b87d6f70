package mass

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Tolerance expresses a symmetric mass tolerance window, either absolute
// (Daltons) or relative (parts per million). The zero value is an exact
// match (zero-width window).
type Tolerance struct {
	Value float64
	Unit  ToleranceUnit
}

// ToleranceUnit selects the interpretation of Tolerance.Value.
type ToleranceUnit uint8

const (
	// Dalton tolerances are absolute: window = Value Da on each side.
	Dalton ToleranceUnit = iota
	// PPM tolerances are relative: window = mass * Value / 1e6 on each side.
	PPM
)

// Da returns an absolute tolerance of v Daltons.
func Da(v float64) Tolerance { return Tolerance{Value: v, Unit: Dalton} }

// Ppm returns a relative tolerance of v parts per million.
func Ppm(v float64) Tolerance { return Tolerance{Value: v, Unit: PPM} }

// Open returns the open-search tolerance (infinite window), used by the
// paper for ∆M = ∞.
func Open() Tolerance { return Tolerance{Value: math.Inf(1), Unit: Dalton} }

// IsOpen reports whether t admits any mass (infinite window).
func (t Tolerance) IsOpen() bool { return math.IsInf(t.Value, 1) }

// Width returns the half-width of the window around the reference mass m.
func (t Tolerance) Width(m float64) float64 {
	if t.Unit == PPM {
		return m * t.Value / 1e6
	}
	return t.Value
}

// Window returns the inclusive [lo, hi] acceptance interval around m.
func (t Tolerance) Window(m float64) (lo, hi float64) {
	w := t.Width(m)
	return m - w, m + w
}

// Contains reports whether candidate x lies within the window around m.
func (t Tolerance) Contains(m, x float64) bool {
	if t.IsOpen() {
		return true
	}
	w := t.Width(m)
	return x >= m-w && x <= m+w
}

// String implements fmt.Stringer.
func (t Tolerance) String() string {
	if t.IsOpen() {
		return "open"
	}
	switch t.Unit {
	case PPM:
		return fmt.Sprintf("%gppm", t.Value)
	default:
		return fmt.Sprintf("%gDa", t.Value)
	}
}

// ParseTolerance converts a tolerance as printed by String back to a
// Tolerance: "0.05Da", "20ppm", or "open".
func ParseTolerance(s string) (Tolerance, error) {
	if s == "open" {
		return Open(), nil
	}
	if v, ok := strings.CutSuffix(s, "ppm"); ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Tolerance{}, fmt.Errorf("mass: bad tolerance %q: %w", s, err)
		}
		return Ppm(f), nil
	}
	if v, ok := strings.CutSuffix(s, "Da"); ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Tolerance{}, fmt.Errorf("mass: bad tolerance %q: %w", s, err)
		}
		return Da(f), nil
	}
	return Tolerance{}, fmt.Errorf("mass: bad tolerance %q (want e.g. \"0.05Da\", \"20ppm\" or \"open\")", s)
}

// MarshalJSON encodes the tolerance as its String form. JSON has no
// representation for the +Inf open-search window, and %g prints the
// shortest digit string that round-trips, so the encoding is both exact
// and human-readable in persisted session manifests.
func (t Tolerance) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON decodes a tolerance written by MarshalJSON.
func (t *Tolerance) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseTolerance(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// Bucketer maps fragment masses to integer bucket indices at a fixed
// resolution, the discretization used by the SLM index. Resolution is the
// bucket width in Daltons (paper default r = 0.01).
type Bucketer struct {
	Resolution float64
}

// NewBucketer returns a Bucketer with the given resolution. It panics if
// resolution is not positive, as a zero resolution would make every mass its
// own bucket boundary.
func NewBucketer(resolution float64) Bucketer {
	if resolution <= 0 {
		panic("mass: bucket resolution must be positive")
	}
	return Bucketer{Resolution: resolution}
}

// Bucket returns the bucket index for mass m (m must be >= 0).
func (b Bucketer) Bucket(m float64) int {
	return int(math.Round(m / b.Resolution))
}

// Range returns the inclusive bucket range [lo, hi] covering the window
// tol around mass m.
func (b Bucketer) Range(m float64, tol Tolerance) (lo, hi int) {
	wlo, whi := tol.Window(m)
	if wlo < 0 {
		wlo = 0
	}
	return b.Bucket(wlo), b.Bucket(whi)
}
