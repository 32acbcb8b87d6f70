package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"lbe/internal/editdist"
)

const alpha = "ACDEFGHIKLMNPQRSTVWY"

func randSeqs(rng *rand.Rand, n, maxLen int) []string {
	out := make([]string, n)
	for i := range out {
		var sb strings.Builder
		for j := 0; j < rng.Intn(maxLen)+1; j++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		out[i] = sb.String()
	}
	return out
}

func TestGroupEmpty(t *testing.T) {
	g, err := Group(nil, DefaultGroupConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 0 || len(g.Order) != 0 {
		t.Errorf("empty grouping = %+v", g)
	}
}

func TestGroupSingleton(t *testing.T) {
	g, err := Group([]string{"PEPTIDEK"}, DefaultGroupConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 1 || g.Sizes[0] != 1 || g.Order[0] != 0 {
		t.Errorf("singleton grouping = %+v", g)
	}
}

func TestGroupSortsByLengthThenLex(t *testing.T) {
	seqs := []string{"CCCC", "AA", "BBB", "AB", "AAAA"}
	g, err := Group(seqs, DefaultGroupConfig())
	if err != nil {
		t.Fatal(err)
	}
	clustered := g.Clustered(seqs)
	want := []string{"AA", "AB", "BBB", "AAAA", "CCCC"}
	for i := range want {
		if clustered[i] != want[i] {
			t.Fatalf("clustered = %v, want %v", clustered, want)
		}
	}
}

func TestGroupSimilarSequencesCluster(t *testing.T) {
	// Ten close variants of one peptide plus one distant outlier, absolute
	// criterion: variants join one group, the outlier starts another.
	base := "AAAAGGGGKKKK"
	seqs := []string{base}
	for i := 0; i < 9; i++ {
		b := []byte(base)
		b[i] = 'C' // one substitution each
		seqs = append(seqs, string(b))
	}
	seqs = append(seqs, "WWWWYYYYFFFF")
	cfg := GroupConfig{Criterion: AbsoluteEdit, D: 2, GroupSize: 20}
	g, err := Group(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All variants are within distance 2 of whichever seed sorts first;
	// max{d, len/2} = 6 here so they certainly join. The outlier is at
	// distance 12.
	if g.NumGroups() != 2 {
		t.Fatalf("groups = %v (sizes %v)", g.NumGroups(), g.Sizes)
	}
	if g.Sizes[0] != 10 || g.Sizes[1] != 1 {
		t.Errorf("sizes = %v, want [10 1]", g.Sizes)
	}
}

func TestGroupSizeCap(t *testing.T) {
	// 50 identical sequences with cap 20 must form groups of 20/20/10.
	seqs := make([]string, 50)
	for i := range seqs {
		seqs[i] = "AAAAKKKK"
	}
	cfg := DefaultGroupConfig()
	g, err := Group(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sizes) != 3 || g.Sizes[0] != 20 || g.Sizes[1] != 20 || g.Sizes[2] != 10 {
		t.Errorf("sizes = %v, want [20 20 10]", g.Sizes)
	}
}

func TestGroupInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	cfgs := []GroupConfig{
		DefaultGroupConfig(),
		{Criterion: AbsoluteEdit, D: 2, GroupSize: 20},
		{Criterion: AbsoluteEdit, D: 0, GroupSize: 5},
		{Criterion: NormalizedEdit, DPrime: 0.3, GroupSize: 8},
	}
	f := func(nRaw uint8, cfgIdx uint8) bool {
		seqs := randSeqs(rng, int(nRaw%60), 25)
		cfg := cfgs[int(cfgIdx)%len(cfgs)]
		g, err := Group(seqs, cfg)
		if err != nil {
			return false
		}
		// Order is a permutation of [0,n).
		if len(g.Order) != len(seqs) {
			return false
		}
		seen := make([]bool, len(seqs))
		for _, idx := range g.Order {
			if idx < 0 || idx >= len(seqs) || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		// Sizes sum to n, each in [1, GroupSize].
		sum := 0
		for _, sz := range g.Sizes {
			if sz < 1 || sz > cfg.GroupSize {
				return false
			}
			sum += sz
		}
		if sum != len(seqs) {
			return false
		}
		// Clustered order is length-then-lex sorted.
		clustered := g.Clustered(seqs)
		sorted := sort.SliceIsSorted(clustered, func(a, b int) bool {
			if len(clustered[a]) != len(clustered[b]) {
				return len(clustered[a]) < len(clustered[b])
			}
			return clustered[a] < clustered[b]
		})
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGroupMembersSatisfyCriterion(t *testing.T) {
	// Every member of a group must satisfy the join criterion against the
	// group's seed (its first member in clustered order).
	rng := rand.New(rand.NewSource(61))
	seqs := randSeqs(rng, 120, 15)
	cfg := GroupConfig{Criterion: AbsoluteEdit, D: 2, GroupSize: 10}
	g, err := Group(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clustered := g.Clustered(seqs)
	start := 0
	for _, sz := range g.Sizes {
		seed := clustered[start]
		for k := start + 1; k < start+sz; k++ {
			s := clustered[k]
			cutoff := cfg.D
			if half := len(s) / 2; half > cutoff {
				cutoff = half
			}
			if d := editdist.Naive(seed, s); d > cutoff {
				t.Fatalf("member %q in group seeded %q has distance %d > cutoff %d", s, seed, d, cutoff)
			}
		}
		start += sz
	}
}

func TestGroupOf(t *testing.T) {
	g := Grouping{Order: []int{3, 1, 0, 2, 4}, Sizes: []int{2, 3}}
	want := []int{0, 0, 1, 1, 1}
	for i, gi := range g.GroupOf() {
		if gi != want[i] {
			t.Errorf("GroupOf()[%d] = %d, want %d", i, gi, want[i])
		}
	}
}

func TestGroupConfigValidate(t *testing.T) {
	bad := []GroupConfig{
		{Criterion: AbsoluteEdit, D: 2, GroupSize: 0},
		{Criterion: AbsoluteEdit, D: -1, GroupSize: 5},
		{Criterion: NormalizedEdit, DPrime: -0.1, GroupSize: 5},
		{Criterion: NormalizedEdit, DPrime: 1.5, GroupSize: 5},
		{Criterion: Criterion(9), GroupSize: 5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail validation: %+v", i, cfg)
		}
		if _, err := Group([]string{"AA"}, cfg); err == nil {
			t.Errorf("Group must propagate validation error for config %d", i)
		}
	}
	if err := DefaultGroupConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestCriterionString(t *testing.T) {
	if AbsoluteEdit.String() != "absolute" || NormalizedEdit.String() != "normalized" {
		t.Error("criterion names wrong")
	}
	if !strings.Contains(Criterion(7).String(), "7") {
		t.Error("unknown criterion should include its value")
	}
}

func TestNormalizedCriterionJoins(t *testing.T) {
	// d'=0.86 admits anything but a complete rewrite; a very small d'
	// admits only near-identical sequences.
	loose := GroupConfig{Criterion: NormalizedEdit, DPrime: 0.86, GroupSize: 100}
	tight := GroupConfig{Criterion: NormalizedEdit, DPrime: 0.05, GroupSize: 100}
	seqs := []string{"AAAAAAAAAA", "AAAAAAAAAC", "WWWWWWWWWW"}
	gl, _ := Group(seqs, loose)
	gt, _ := Group(seqs, tight)
	// Loose: the single-substitution pair joins (1/10 <= 0.86); the
	// all-W sequence is at normalized distance 1.0 and starts a new group.
	if gl.NumGroups() != 2 {
		t.Errorf("loose groups = %d, want 2 (sizes %v)", gl.NumGroups(), gl.Sizes)
	}
	// Tight: cutoff floor(0.05*10) = 0, so even one substitution splits.
	if gt.NumGroups() != 3 {
		t.Errorf("tight groups = %d, want 3 (sizes %v)", gt.NumGroups(), gt.Sizes)
	}
}
