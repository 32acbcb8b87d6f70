package mods

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestVariantsUnmodifiedOnly(t *testing.T) {
	cfg := DefaultConfig()
	vs, err := cfg.Variants("GGAVLL") // no N,Q,K,C,M residues
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].IsModified() {
		t.Fatalf("expected only the unmodified variant, got %v", vs)
	}
}

func TestVariantsSingleSite(t *testing.T) {
	cfg := Config{Mods: []Mod{OxidationM}, MaxPerPep: 5}
	vs, err := cfg.Variants("AMA")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d variants, want 2", len(vs))
	}
	if vs[0].IsModified() {
		t.Error("first variant must be unmodified")
	}
	v := vs[1]
	if len(v.Sites) != 1 || v.Sites[0].Pos != 1 || v.Sites[0].Mod != 0 {
		t.Errorf("site = %+v", v.Sites)
	}
	if math.Abs(v.Delta-15.99491) > 1e-9 {
		t.Errorf("delta = %v", v.Delta)
	}
}

func TestVariantsCombinatorics(t *testing.T) {
	// Peptide with 3 oxidizable sites, cap 2: 1 + C(3,1) + C(3,2) = 7.
	cfg := Config{Mods: []Mod{OxidationM}, MaxPerPep: 2}
	vs, err := cfg.Variants("MMM")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 7 {
		t.Fatalf("got %d variants, want 7", len(vs))
	}
	counts := map[int]int{}
	for _, v := range vs {
		counts[len(v.Sites)]++
	}
	if counts[0] != 1 || counts[1] != 3 || counts[2] != 3 {
		t.Errorf("site-count histogram = %v", counts)
	}
}

func TestVariantsMultiModPerResidue(t *testing.T) {
	// K is targeted by GlyGly; N by Deamidation. A residue targeted by two
	// mods contributes one site option per mod but at most one applied.
	twoOnK := []Mod{
		{Name: "A", Residues: "K", Delta: 1},
		{Name: "B", Residues: "K", Delta: 2},
	}
	cfg := Config{Mods: twoOnK, MaxPerPep: 3}
	vs, err := cfg.Variants("KK")
	if err != nil {
		t.Fatal(err)
	}
	// Each K independently: unmodified, A, or B -> 3*3 = 9 variants.
	if len(vs) != 9 {
		t.Fatalf("got %d variants, want 9", len(vs))
	}
	// No variant may modify one position twice.
	for _, v := range vs {
		seen := map[int]bool{}
		for _, s := range v.Sites {
			if seen[s.Pos] {
				t.Fatalf("position %d modified twice in %+v", s.Pos, v)
			}
			seen[s.Pos] = true
		}
	}
}

func TestVariantsCapEnforced(t *testing.T) {
	cfg := Config{Mods: []Mod{OxidationM}, MaxPerPep: 2}
	vs, err := cfg.Variants("MMMMMM")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if len(v.Sites) > 2 {
			t.Fatalf("variant exceeds cap: %+v", v)
		}
	}
	// 1 + C(6,1) + C(6,2) = 22
	if len(vs) != 22 {
		t.Errorf("got %d variants, want 22", len(vs))
	}
}

func TestVariantsMaxVariantCap(t *testing.T) {
	cfg := Config{Mods: []Mod{OxidationM}, MaxPerPep: 5, MaxVariant: 10}
	vs, err := cfg.Variants("MMMMMMMMMM")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 10 {
		t.Errorf("got %d variants, want capped 10", len(vs))
	}
}

func TestCountMatchesVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const alpha = "ACDEFGHIKLMNPQRSTVWY"
	cfg := DefaultConfig()
	for trial := 0; trial < 200; trial++ {
		var sb strings.Builder
		for i := 0; i < rng.Intn(12)+1; i++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		seq := sb.String()
		vs, err := cfg.Variants(seq)
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.Count(seq); got != len(vs) {
			t.Fatalf("Count(%q) = %d, Variants produced %d", seq, got, len(vs))
		}
	}
}

func TestVariantDeltaProperty(t *testing.T) {
	// Each variant's delta equals the sum of its site deltas.
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(29))
	const alpha = "NQKCMAG"
	f := func(n uint8) bool {
		var sb strings.Builder
		for i := 0; i < int(n%8)+1; i++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		vs, err := cfg.Variants(sb.String())
		if err != nil {
			return false
		}
		for _, v := range vs {
			sum := 0.0
			for _, s := range v.Sites {
				sum += cfg.Mods[s.Mod].Delta
			}
			if math.Abs(sum-v.Delta) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVariantsDeterministicOrder(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := cfg.Variants("NQKCM")
	b, _ := cfg.Variants("NQKCM")
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i].Delta != b[i].Delta || len(a[i].Sites) != len(b[i].Sites) {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
	// Sorted by site count first.
	for i := 1; i < len(a); i++ {
		if len(a[i].Sites) < len(a[i-1].Sites) {
			t.Fatalf("variants not ordered by site count at %d", i)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := Config{Mods: []Mod{{Name: "x"}}, MaxPerPep: 1}
	if err := bad.Validate(); err == nil {
		t.Error("mod without residues should fail validation")
	}
	bad = Config{MaxPerPep: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative cap should fail validation")
	}
	if _, err := bad.Variants("AAA"); err == nil {
		t.Error("Variants must propagate validation errors")
	}
}

func TestZeroMaxPerPep(t *testing.T) {
	cfg := Config{Mods: PaperSet(), MaxPerPep: 0}
	vs, err := cfg.Variants("NQKCM")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Errorf("MaxPerPep=0 must yield only the unmodified variant, got %d", len(vs))
	}
}

// TestVariantsShareOneSiteArray: Variants cuts every variant's sites from
// one array, so its allocations do not grow with the variants it returns.
func TestVariantsShareOneSiteArray(t *testing.T) {
	cfg := Config{Mods: PaperSet(), MaxPerPep: 3}
	const seq = "MKNQCMKNQR"
	vs, err := cfg.Variants(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) < 100 {
		t.Fatalf("%d variants: too few to tell", len(vs))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := cfg.Variants(seq); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d variants, %.0f allocations", len(vs), allocs)
	if allocs > 5 {
		t.Errorf("Variants allocates %.0f times for %d variants, want <= 5", allocs, len(vs))
	}
}
