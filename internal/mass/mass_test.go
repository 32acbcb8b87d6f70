package mass

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestResidueKnownValues(t *testing.T) {
	cases := []struct {
		aa   byte
		want float64
	}{
		{'G', 57.02146374},
		{'A', 71.03711381},
		{'W', 186.07931295},
		{'K', 128.09496302},
		{'R', 156.10111102},
	}
	for _, c := range cases {
		got, err := Residue(c.aa)
		if err != nil {
			t.Fatalf("Residue(%c): %v", c.aa, err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Residue(%c) = %.8f, want %.8f", c.aa, got, c.want)
		}
	}
}

func TestResidueInvalid(t *testing.T) {
	for _, aa := range []byte{'B', 'J', 'O', 'U', 'X', 'Z', 'a', '1', ' '} {
		if _, err := Residue(aa); err == nil {
			t.Errorf("Residue(%q) should fail", string(rune(aa)))
		}
		if ValidResidue(aa) {
			t.Errorf("ValidResidue(%q) should be false", string(rune(aa)))
		}
	}
}

func TestPeptideKnownMass(t *testing.T) {
	// PEPTIDE has a well-known monoisotopic neutral mass of ~799.35997 Da.
	m, err := Peptide("PEPTIDE")
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m, 799.35997, 5e-4) {
		t.Errorf("Peptide(PEPTIDE) = %.5f, want ~799.35997", m)
	}
	// Glycine alone: residue + water.
	g, _ := Peptide("G")
	if !almostEqual(g, 57.02146374+Water, 1e-9) {
		t.Errorf("Peptide(G) = %v", g)
	}
}

func TestPeptideErrors(t *testing.T) {
	if _, err := Peptide(""); err == nil {
		t.Error("empty peptide should fail")
	}
	if _, err := Peptide("PEPTIDEX"); err == nil {
		t.Error("peptide with X should fail")
	}
	if !ValidSequence("") {
		t.Error("empty sequence is valid by convention")
	}
	if ValidSequence("PEPTIDEZ") {
		t.Error("Z is not a standard residue")
	}
}

func TestMustPeptidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPeptide should panic on invalid input")
		}
	}()
	MustPeptide("B")
}

func TestWaterConstant(t *testing.T) {
	if !almostEqual(Water, 18.0105646, 1e-7) {
		t.Errorf("Water = %v", Water)
	}
}

func TestMZRoundTrip(t *testing.T) {
	for charge := 1; charge <= 4; charge++ {
		for _, m := range []float64{100, 799.35997, 4999.9} {
			mz := MZ(m, charge)
			back := mz*float64(charge) - float64(charge)*Proton
			if !almostEqual(back, m, 1e-9) {
				t.Errorf("MZ(%v,%d) back to neutral = %v", m, charge, back)
			}
			if mz <= 0 {
				t.Errorf("MZ must be positive, got %v", mz)
			}
		}
	}
}

func TestPeptideAdditivity(t *testing.T) {
	// mass(A+B) = mass(A) + mass(B) - Water, since concatenation shares
	// one water.
	f := func(a, b uint8) bool {
		sa := randPeptide(int(a%20) + 1)
		sb := randPeptide(int(b%20) + 1)
		ma := MustPeptide(sa)
		mb := MustPeptide(sb)
		mc := MustPeptide(sa + sb)
		return almostEqual(mc, ma+mb-Water, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

const alphabet = "ACDEFGHIKLMNPQRSTVWY"

var rng = rand.New(rand.NewSource(42))

func randPeptide(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func TestPeptideMonotonicity(t *testing.T) {
	// Adding any residue strictly increases mass.
	f := func(n uint8, r uint8) bool {
		seq := randPeptide(int(n%30) + 1)
		aa := alphabet[int(r)%len(alphabet)]
		return MustPeptide(seq+string(aa)) > MustPeptide(seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeucineIsoleucineIsobaric(t *testing.T) {
	if MustResidue('L') != MustResidue('I') {
		t.Error("L and I must be isobaric")
	}
}

func TestToleranceDa(t *testing.T) {
	tol := Da(0.05)
	lo, hi := tol.Window(500)
	if lo != 499.95 || hi != 500.05 {
		t.Errorf("window = [%v,%v]", lo, hi)
	}
	if !tol.Contains(500, 500.05) || tol.Contains(500, 500.0501) {
		t.Error("Contains boundary check failed")
	}
	if tol.String() != "0.05Da" {
		t.Errorf("String() = %q", tol.String())
	}
}

func TestTolerancePPM(t *testing.T) {
	tol := Ppm(10)
	w := tol.Width(1000)
	if !almostEqual(w, 0.01, 1e-12) {
		t.Errorf("10ppm of 1000 = %v, want 0.01", w)
	}
	if !tol.Contains(1000, 1000.0099) || tol.Contains(1000, 1000.02) {
		t.Error("ppm Contains failed")
	}
	if tol.String() != "10ppm" {
		t.Errorf("String() = %q", tol.String())
	}
}

func TestToleranceOpen(t *testing.T) {
	tol := Open()
	if !tol.IsOpen() {
		t.Fatal("Open() must be open")
	}
	if !tol.Contains(500, 1e9) || !tol.Contains(500, 0) {
		t.Error("open tolerance must contain everything")
	}
	if tol.String() != "open" {
		t.Errorf("String() = %q", tol.String())
	}
	if Da(1).IsOpen() {
		t.Error("1Da is not open")
	}
}

func TestBucketer(t *testing.T) {
	b := NewBucketer(0.01)
	if b.Bucket(0) != 0 {
		t.Error("Bucket(0) != 0")
	}
	if got := b.Bucket(500.004); got != 50000 {
		t.Errorf("Bucket(500.004) = %d, want 50000", got)
	}
	if got := b.Bucket(500.006); got != 50001 {
		t.Errorf("Bucket(500.006) = %d, want 50001", got)
	}
	lo, hi := b.Range(500, Da(0.05))
	if lo != 49995 || hi != 50005 {
		t.Errorf("Range = [%d,%d]", lo, hi)
	}
}

func TestBucketerNegativeClamp(t *testing.T) {
	b := NewBucketer(0.01)
	lo, _ := b.Range(0.001, Da(0.05))
	if lo < 0 {
		t.Errorf("Range low end must clamp at 0, got %d", lo)
	}
}

func TestBucketerPanicsOnZeroResolution(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBucketer(0) should panic")
		}
	}()
	NewBucketer(0)
}

func TestBucketerMonotone(t *testing.T) {
	b := NewBucketer(0.01)
	f := func(x, y uint16) bool {
		mx, my := float64(x)/10, float64(y)/10
		if mx > my {
			mx, my = my, mx
		}
		return b.Bucket(mx) <= b.Bucket(my)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToleranceJSONRoundTrip(t *testing.T) {
	cases := []Tolerance{Da(0.05), Ppm(20), Open(), Da(0), Da(0.1234567890123)}
	for _, tol := range cases {
		b, err := json.Marshal(tol)
		if err != nil {
			t.Fatalf("%v: %v", tol, err)
		}
		var got Tolerance
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%v: %v", tol, err)
		}
		if got != tol {
			t.Errorf("round trip changed %v to %v (wire %s)", tol, got, b)
		}
	}
	var bad Tolerance
	if err := json.Unmarshal([]byte(`"12parsecs"`), &bad); err == nil {
		t.Error("bad tolerance unit must fail to parse")
	}
}
