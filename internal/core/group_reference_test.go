package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lbe/internal/digest"
	"lbe/internal/editdist"
	"lbe/internal/gen"
)

// referenceGroup is Algorithm 1 as first written: a stable two-key sort
// (length, then sequence) and the full dynamic program for every distance.
// Group must reproduce it exactly; it is kept here, and only here, as the
// oracle for Group's faster sort and distance kernel.
func referenceGroup(seqs []string, cfg GroupConfig) Grouping {
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := seqs[order[a]], seqs[order[b]]
		if len(sa) != len(sb) {
			return len(sa) < len(sb)
		}
		return sa < sb
	})
	joins := func(seed, s string) bool {
		var cutoff int
		switch cfg.Criterion {
		case AbsoluteEdit:
			cutoff = max(cfg.D, len(s)/2)
		default:
			n := max(len(seed), len(s))
			if n == 0 {
				return true
			}
			cutoff = int(cfg.DPrime * float64(n))
		}
		return editdist.Naive(seed, s) <= cutoff
	}
	g := Grouping{Order: order}
	if len(order) == 0 {
		return g
	}
	seed := seqs[order[0]]
	g.Sizes = []int{1}
	for _, idx := range order[1:] {
		s := seqs[idx]
		last := len(g.Sizes) - 1
		if g.Sizes[last] >= cfg.GroupSize || !joins(seed, s) {
			seed = s
			g.Sizes = append(g.Sizes, 1)
			continue
		}
		g.Sizes[last]++
	}
	return g
}

// digestCorpus is the distinct tryptic peptides of a synthetic proteome of
// the given number of protein families: homolog-rich, as LBE's grouping
// expects, with lengths up to digest's default maximum.
func digestCorpus(tb testing.TB, seed uint64, families int) []string {
	tb.Helper()
	recs, err := gen.Proteome(gen.ProteomeConfig{
		Seed: seed, NumFamilies: families, Homologs: 4, MeanLen: 450, MutationRate: 0.03,
	})
	if err != nil {
		tb.Fatal(err)
	}
	seqs := make([]string, len(recs))
	for i, r := range recs {
		seqs[i] = r.Sequence
	}
	peps, err := digest.DefaultConfig().Proteome(seqs)
	if err != nil {
		tb.Fatal(err)
	}
	return digest.Sequences(digest.Dedup(peps))
}

// TestGroupMatchesReference: Group gives referenceGroup's Order and Sizes
// on digested corpora at three seeds, under both criteria and both ends of
// the group size cap. Every corpus also carries planted duplicates (ties
// the sort must leave in input order) and a 70-residue peptide with a
// one-substitution variant, so the banded kernel past one word decides a
// join too.
func TestGroupMatchesReference(t *testing.T) {
	long := strings.Repeat("ACDEFGHIKLMNPQRSTVWY", 4)[:70]
	variant := long[:35] + "W" + long[36:]
	cfgs := []GroupConfig{
		{Criterion: AbsoluteEdit, D: 2, GroupSize: 1},
		{Criterion: AbsoluteEdit, D: 2, GroupSize: 20},
		{Criterion: NormalizedEdit, DPrime: 0.86, GroupSize: 1},
		{Criterion: NormalizedEdit, DPrime: 0.86, GroupSize: 20},
		{Criterion: NormalizedEdit, DPrime: 0.3, GroupSize: 20},
	}
	for _, seed := range []uint64{1, 2, 3} {
		seqs := digestCorpus(t, seed, 12)
		// Plant duplicates far apart in the input, and the long pair.
		for i := 0; i < len(seqs); i += 97 {
			seqs = append(seqs, seqs[i])
		}
		seqs = append(seqs, variant, long, seqs[len(seqs)/2])
		for _, cfg := range cfgs {
			t.Run(fmt.Sprintf("seed=%d/%v/d=%d/d'=%g/size=%d", seed, cfg.Criterion, cfg.D, cfg.DPrime, cfg.GroupSize), func(t *testing.T) {
				got, err := Group(seqs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceGroup(seqs, cfg)
				if !reflect.DeepEqual(got.Order, want.Order) {
					t.Fatal("Order differs from the reference grouping")
				}
				if !reflect.DeepEqual(got.Sizes, want.Sizes) {
					t.Fatalf("Sizes differ from the reference grouping: %d groups, want %d", len(got.Sizes), len(want.Sizes))
				}
			})
		}
	}
}

// BenchmarkGroup runs Algorithm 1 with the paper's defaults over about
// 10 000 digested peptides.
func BenchmarkGroup(b *testing.B) {
	seqs := digestCorpus(b, 1, 33)
	cfg := DefaultGroupConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Group(seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
