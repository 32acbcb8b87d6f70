// Package core implements LBE, the paper's contribution: a load-balancing
// data-distribution layer for distributed peptide search. It provides
//
//   - peptide grouping (Algorithm 1): clustering similar peptide sequences
//     so that reference spectra likely to co-match a query are identified;
//   - partition policies (Chunk, Cyclic, Random) that spread those groups
//     across machines so every machine holds a similar data sketch;
//   - the master-side mapping table that translates each machine's virtual
//     peptide indices back to global index entries in O(1).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"lbe/internal/editdist"
)

// Criterion selects which of the two grouping cutoffs from Algorithm 1 is
// applied when deciding whether a peptide joins the current group.
type Criterion uint8

const (
	// AbsoluteEdit is criterion 1: join when
	// EditDistance(seed, s) <= max{D, len(s)/2}.
	AbsoluteEdit Criterion = iota
	// NormalizedEdit is criterion 2: join when
	// EditDistance(seed, s) / max{len(seed), len(s)} <= DPrime.
	NormalizedEdit
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case AbsoluteEdit:
		return "absolute"
	case NormalizedEdit:
		return "normalized"
	default:
		return fmt.Sprintf("Criterion(%d)", uint8(c))
	}
}

// GroupConfig holds the Algorithm 1 parameters. The zero value is invalid;
// use DefaultGroupConfig for the paper's defaults.
type GroupConfig struct {
	Criterion Criterion
	D         int     // criterion 1 distance floor (paper default 2)
	DPrime    float64 // criterion 2 normalized cutoff (paper default 0.86)
	GroupSize int     // maximum peptides per group (paper default 20)
}

// DefaultGroupConfig returns the paper defaults: criterion 2 with
// d' = 0.86 and group size 20 (the setting used in §V-A1).
func DefaultGroupConfig() GroupConfig {
	return GroupConfig{Criterion: NormalizedEdit, D: 2, DPrime: 0.86, GroupSize: 20}
}

// Validate reports configuration errors.
func (c GroupConfig) Validate() error {
	if c.GroupSize < 1 {
		return fmt.Errorf("core: group size %d must be >= 1", c.GroupSize)
	}
	switch c.Criterion {
	case AbsoluteEdit:
		if c.D < 0 {
			return fmt.Errorf("core: criterion 1 distance floor %d must be >= 0", c.D)
		}
	case NormalizedEdit:
		if c.DPrime < 0 || c.DPrime > 1 {
			return fmt.Errorf("core: criterion 2 cutoff %g must be in [0,1]", c.DPrime)
		}
	default:
		return fmt.Errorf("core: unknown criterion %d", c.Criterion)
	}
	return nil
}

// Grouping is the result of Algorithm 1 applied to a peptide list: the
// permutation that sorts the input into clustered order and the sizes of
// the consecutive groups in that order.
type Grouping struct {
	// Order[i] is the index into the original peptide list of the i-th
	// peptide in clustered order.
	Order []int
	// Sizes[g] is the number of peptides in group g; groups are consecutive
	// runs of Order. Sum(Sizes) == len(Order).
	Sizes []int
}

// NumGroups returns the number of groups.
func (g Grouping) NumGroups() int { return len(g.Sizes) }

// GroupOf returns, for each clustered position, the group it belongs to.
func (g Grouping) GroupOf() []int {
	out := make([]int, len(g.Order))
	pos := 0
	for gi, sz := range g.Sizes {
		for k := 0; k < sz; k++ {
			out[pos] = gi
			pos++
		}
	}
	return out
}

// joins reports whether candidate seq s may join the group seeded by seed
// under the configured criterion.
func (c GroupConfig) joins(seed, s string) bool {
	switch c.Criterion {
	case AbsoluteEdit:
		cutoff := c.D
		if half := len(s) / 2; half > cutoff {
			cutoff = half
		}
		return editdist.Within(seed, s, cutoff)
	default: // NormalizedEdit
		n := len(seed)
		if len(s) > n {
			n = len(s)
		}
		if n == 0 {
			return true
		}
		// dist/n <= DPrime  <=>  dist <= floor(DPrime * n)
		cutoff := int(c.DPrime * float64(n))
		return editdist.Within(seed, s, cutoff)
	}
}

// Group runs Algorithm 1 over the peptide sequences: sort by length then
// lexicographically, then greedily grow groups from the running seed until
// the criterion fails or the group size cap is hit. It returns the
// clustered ordering and group sizes.
//
// The sort is by the total order (length, sequence, input index), so equal
// sequences keep their input order, as a stable two-key sort would. The
// distance test is editdist.Within, whose bit-parallel kernel makes each
// candidate cost O(len) word operations whatever the cutoff: criterion 2's
// default cutoff, floor(0.86 * len), would leave a banded DP nearly the
// whole table.
//
// The input slice is not modified.
func Group(seqs []string, cfg GroupConfig) (Grouping, error) {
	if err := cfg.Validate(); err != nil {
		return Grouping{}, err
	}
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		sa, sb := seqs[a], seqs[b]
		return cmp.Or(cmp.Compare(len(sa), len(sb)), strings.Compare(sa, sb), cmp.Compare(a, b))
	})

	g := Grouping{Order: order}
	if len(order) == 0 {
		return g, nil
	}

	seed := seqs[order[0]]
	g.Sizes = append(g.Sizes, 1)
	for k := 1; k < len(order); k++ {
		s := seqs[order[k]]
		last := len(g.Sizes) - 1
		if g.Sizes[last] >= cfg.GroupSize || !cfg.joins(seed, s) {
			// Init new group seeded at s.
			seed = s
			g.Sizes = append(g.Sizes, 1)
			continue
		}
		g.Sizes[last]++
	}
	return g, nil
}

// IdentityGrouping returns the no-op grouping over n peptides: original
// database order, every peptide its own group. It is the "no LBE
// clustering" baseline used by the grouping ablation.
func IdentityGrouping(n int) Grouping {
	g := Grouping{Order: make([]int, n), Sizes: make([]int, n)}
	for i := range g.Order {
		g.Order[i] = i
		g.Sizes[i] = 1
	}
	return g
}

// Clustered returns the peptide sequences in clustered order, the layout
// written to the "clustered database" FASTA in the original pipeline.
func (g Grouping) Clustered(seqs []string) []string {
	out := make([]string, len(g.Order))
	for i, idx := range g.Order {
		out[i] = seqs[idx]
	}
	return out
}
