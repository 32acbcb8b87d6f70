package editdist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNaiveKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "ABC", 3},
		{"ABC", "", 3},
		{"ABC", "ABC", 0},
		{"KITTEN", "SITTING", 3},
		{"FLAW", "LAWN", 2},
		{"PEPTIDE", "PEPTIDE", 0},
		{"PEPTIDE", "PEPTIDA", 1},
		{"PEPTIDE", "PETIDE", 1},
		{"PEPTIDE", "PPEPTIDE", 1},
		{"AAAA", "TTTT", 4},
	}
	for _, c := range cases {
		if got := Naive(c.a, c.b); got != c.want {
			t.Errorf("Naive(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

const alpha = "ACDEFGHIKLMNPQRSTVWY"

func randSeq(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[rng.Intn(len(alpha))])
	}
	return sb.String()
}

// TestDistanceMatchesNaive covers both length classes: pairs whose shorter
// side fits in a word (the bit-parallel kernel) and pairs past it (the
// banded one), with cutoffs from tight to loose.
func TestDistanceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4000; trial++ {
		n := 25
		if trial%2 == 1 {
			n = 100
		}
		a := randSeq(rng, rng.Intn(n))
		b := randSeq(rng, rng.Intn(n))
		maxDist := rng.Intn(8)
		if trial%4 >= 2 {
			maxDist = rng.Intn(n)
		}
		exact := Naive(a, b)
		got := Distance(a, b, maxDist)
		if exact <= maxDist {
			if got != exact {
				t.Fatalf("Distance(%q,%q,%d) = %d, want exact %d", a, b, maxDist, got, exact)
			}
		} else if got != maxDist+1 {
			t.Fatalf("Distance(%q,%q,%d) = %d, want cutoff %d", a, b, maxDist, got, maxDist+1)
		}
	}
}

func TestDistanceNegativeThreshold(t *testing.T) {
	if got := Distance("KITTEN", "SITTING", -1); got != 3 {
		t.Errorf("Distance with -1 = %d, want 3", got)
	}
}

func TestWithin(t *testing.T) {
	if !Within("PEPTIDE", "PEPTIDA", 1) {
		t.Error("distance-1 pair must be within 1")
	}
	if Within("PEPTIDE", "GGGGGGG", 2) {
		t.Error("distant pair must not be within 2")
	}
	if !Within("", "", 0) {
		t.Error("empty pair is within 0")
	}
}

// TestWithinAllocatesNothing: the grouping loop calls Within once per
// peptide, and every digested peptide is shorter than a word.
func TestWithinAllocatesNothing(t *testing.T) {
	a, b := strings.Repeat("PEPTIDEK", 8), strings.Repeat("PEPTIDAK", 8)
	if allocs := testing.AllocsPerRun(100, func() { Within(a, b, 40) }); allocs != 0 {
		t.Errorf("Within allocates %v times per call, want 0", allocs)
	}
}

// FuzzWithin holds Within, both kernels and every early exit, to the full
// dynamic program: for byte strings up to 130 long and any cutoff in
// [-1, 140], Within(a, b, k) == (Naive(a, b) <= k).
func FuzzWithin(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 100} {
		for _, m := range []int{0, 1, 63, 64, 65, 100} {
			for _, alphabet := range []string{"A", alpha} {
				a := strings.Repeat(alphabet, n/len(alphabet)+1)[:n]
				b := strings.Repeat(alphabet[len(alphabet)/2:]+alphabet, m/len(alphabet)+1)[:m]
				f.Add(a, b, (n+m)/4)
			}
		}
	}
	f.Fuzz(func(t *testing.T, a, b string, k int) {
		if len(a) > 130 || len(b) > 130 || k < -1 || k > 140 {
			t.Skip()
		}
		want := Naive(a, b) <= k
		if got := Within(a, b, k); got != want {
			t.Fatalf("Within(%q, %q, %d) = %v, Naive distance %d", a, b, k, got, Naive(a, b))
		}
	})
}

func TestSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(x, y uint8) bool {
		a := randSeq(rng, int(x%30))
		b := randSeq(rng, int(y%30))
		return Naive(a, b) == Naive(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(x, y, z uint8) bool {
		a := randSeq(rng, int(x%20))
		b := randSeq(rng, int(y%20))
		c := randSeq(rng, int(z%20))
		return Naive(a, c) <= Naive(a, b)+Naive(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := func(x, y uint8) bool {
		a := randSeq(rng, int(x%30))
		b := randSeq(rng, int(y%30))
		d := Naive(a, b)
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		return d >= lo && d <= hi && (d != 0) == (a != b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalized(t *testing.T) {
	if got := Normalized("", ""); got != 0 {
		t.Errorf("Normalized empty = %v", got)
	}
	if got := Normalized("AAAA", "TTTT"); got != 1.0 {
		t.Errorf("Normalized disjoint = %v, want 1", got)
	}
	if got := Normalized("PEPTIDE", "PEPTIDA"); got != 1.0/7.0 {
		t.Errorf("Normalized = %v, want 1/7", got)
	}
	if got := Normalized("AB", "ABCD"); got != 0.5 {
		t.Errorf("Normalized length diff = %v, want 0.5", got)
	}
}

func TestDistanceLengthGapShortCircuit(t *testing.T) {
	// A length difference beyond maxDist must exit without touching the DP.
	if got := Distance("A", strings.Repeat("A", 100), 3); got != 4 {
		t.Errorf("got %d, want 4", got)
	}
}

// BenchmarkWithin is the grouping's call: a tryptic-length pair under
// criterion 2's default cutoff, floor(0.86 * 20).
func BenchmarkWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]string, 256)
	for i := range pairs {
		pairs[i] = [2]string{randSeq(rng, 20), randSeq(rng, 20)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sink = Within(p[0], p[1], 17)
	}
}

var sink bool

// BenchmarkDistanceBanded times the kernel for pairs past one word.
func BenchmarkDistanceBanded(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]string, 256)
	for i := range pairs {
		pairs[i] = [2]string{randSeq(rng, 100), randSeq(rng, 100)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		Distance(p[0], p[1], 2)
	}
}

func BenchmarkDistanceNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]string, 256)
	for i := range pairs {
		pairs[i] = [2]string{randSeq(rng, 20), randSeq(rng, 20)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		Naive(p[0], p[1])
	}
}
