// Package mods models post-translational modifications (PTMs) and
// enumerates the modified variants of a peptide, the mechanism by which the
// paper grows its index from 18M to 49.45M spectra.
//
// A Mod is a mass delta attached to a set of target residues. Variant
// enumeration applies every combination of variable mods over a peptide's
// eligible sites, subject to a cap on modified residues per peptide (the
// paper uses 5).
package mods

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Mod is one variable modification: a name, the residues it can attach to,
// and its monoisotopic mass delta in Daltons.
type Mod struct {
	Name     string
	Residues string  // target residue letters, e.g. "NQ"
	Delta    float64 // mass shift (Da)
}

// Standard modifications used in the paper's experimental setup (§V-A3).
var (
	// DeamidationNQ: deamidation of asparagine and glutamine (+0.984 Da).
	DeamidationNQ = Mod{Name: "Deamidation", Residues: "NQ", Delta: 0.98402}
	// GlyGlyKC: Gly-Gly adduct (ubiquitylation remnant) on lysine or
	// cysteine (+114.043 Da).
	GlyGlyKC = Mod{Name: "GlyGly", Residues: "KC", Delta: 114.04293}
	// OxidationM: oxidation of methionine (+15.995 Da).
	OxidationM = Mod{Name: "Oxidation", Residues: "M", Delta: 15.99491}
)

// PaperSet returns the three variable modifications from the paper's setup.
func PaperSet() []Mod { return []Mod{DeamidationNQ, GlyGlyKC, OxidationM} }

// targets reports whether the mod can attach to residue b.
func (m Mod) targets(b byte) bool { return strings.IndexByte(m.Residues, b) >= 0 }

// Site is one applied modification within a variant: the peptide position
// (0-based) and the index of the mod in the mod list.
type Site struct {
	Pos int
	Mod int
}

// Variant is one modified form of a peptide: the (sorted by position) list
// of applied sites and the total mass delta. The unmodified peptide is the
// variant with no sites.
type Variant struct {
	Sites []Site
	Delta float64
}

// IsModified reports whether the variant carries at least one modification.
func (v Variant) IsModified() bool { return len(v.Sites) > 0 }

// Config controls variant enumeration.
type Config struct {
	Mods       []Mod
	MaxPerPep  int // maximum modified residues per peptide (paper: 5)
	MaxVariant int // safety cap on variants per peptide; <=0 means unlimited
}

// DefaultConfig mirrors the paper's settings: the three paper mods with at
// most 5 modified residues per peptide.
func DefaultConfig() Config {
	return Config{Mods: PaperSet(), MaxPerPep: 5}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxPerPep < 0 {
		return fmt.Errorf("mods: negative MaxPerPep %d", c.MaxPerPep)
	}
	for _, m := range c.Mods {
		if m.Residues == "" {
			return fmt.Errorf("mods: mod %q has no target residues", m.Name)
		}
	}
	return nil
}

// siteOption is an eligible (position, mod) pair in a peptide.
type siteOption struct {
	pos int
	mod int
}

// Variants enumerates every modification variant of seq: the unmodified
// form first, then all combinations of applied sites with at most MaxPerPep
// sites (at most one mod per position). Variants are emitted in a
// deterministic order (increasing site count, then lexicographic by site).
// Every variant's Sites is a window of one backing array per call.
func (c Config) Variants(seq string) ([]Variant, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	limit := c.MaxVariant
	if limit <= 0 {
		limit = int(^uint(0) >> 1)
	}
	// A combination modifies each position at most once, so cur never
	// holds more sites than seq has residues.
	e := variantEnum{mods: c.Mods, options: c.siteOptions(seq), limit: limit, n: 1,
		cur: make([]Site, 0, min(c.MaxPerPep, len(seq)))}
	// A counting walk sizes both arrays exactly; the emitting walk then
	// never grows sites, so every window cut from it stays in the one
	// array. The unmodified variant is out[0].
	e.rec(0, c.MaxPerPep)
	e.out = make([]Variant, 1, e.n)
	e.sites = make([]Site, 0, e.nsites)
	e.n, e.cur, e.delta = 1, e.cur[:0], 0
	e.rec(0, c.MaxPerPep)

	// The enumeration emits combinations ordered by first site; normalize
	// to (site count, positions) order for a stable, documented layout.
	slices.SortStableFunc(e.out, func(x, y Variant) int {
		a, b := x.Sites, y.Sites
		if len(a) != len(b) {
			return cmp.Compare(len(a), len(b))
		}
		for k := range a {
			if a[k].Pos != b[k].Pos {
				return cmp.Compare(a[k].Pos, b[k].Pos)
			}
			if a[k].Mod != b[k].Mod {
				return cmp.Compare(a[k].Mod, b[k].Mod)
			}
		}
		return 0
	})
	return e.out, nil
}

// variantEnum is Variants' depth-first enumeration state. Positions are
// strictly increasing along a combination so no position is modified
// twice; cur is the combination being extended. A walk with out nil
// only counts variants (n) and their sites (nsites); otherwise each
// emitted variant copies cur to the end of sites.
type variantEnum struct {
	mods    []Mod
	options []siteOption
	limit   int
	n       int // variants emitted, the unmodified one included
	nsites  int
	out     []Variant
	sites   []Site
	cur     []Site
	delta   float64
}

// rec extends cur with every option from start on, emitting each
// combination, up to budget more sites. It returns false once limit
// variants have been emitted.
func (e *variantEnum) rec(start, budget int) bool {
	if budget == 0 {
		return true
	}
	for i := start; i < len(e.options); i++ {
		opt := e.options[i]
		if len(e.cur) > 0 && e.cur[len(e.cur)-1].Pos == opt.pos {
			continue // one mod per position
		}
		e.cur = append(e.cur, Site{Pos: opt.pos, Mod: opt.mod})
		e.delta += e.mods[opt.mod].Delta
		if e.n >= e.limit {
			return false
		}
		e.n++
		e.nsites += len(e.cur)
		if e.out != nil {
			first := len(e.sites)
			e.sites = append(e.sites, e.cur...)
			e.out = append(e.out, Variant{Sites: e.sites[first:len(e.sites):len(e.sites)], Delta: e.delta})
		}
		ok := e.rec(i+1, budget-1)
		e.delta -= e.mods[opt.mod].Delta
		e.cur = e.cur[:len(e.cur)-1]
		if !ok {
			return false
		}
	}
	return true
}

// siteOptions lists eligible (position, mod) pairs in position order.
func (c Config) siteOptions(seq string) []siteOption {
	opts := make([]siteOption, 0, len(seq)) // exact while no residue has two mods
	for i := 0; i < len(seq); i++ {
		for mi, m := range c.Mods {
			if m.targets(seq[i]) {
				opts = append(opts, siteOption{pos: i, mod: mi})
			}
		}
	}
	return opts
}

// Count returns the number of variants Variants would produce for seq
// without materializing them (ignoring MaxVariant). It is used by sizing
// and memory-footprint experiments.
func (c Config) Count(seq string) int {
	options := c.siteOptions(seq)
	// Group options by position: positions with k eligible mods contribute
	// a choice of (1 + k) when selected... but selection is bounded by
	// MaxPerPep distinct positions. Count combinations with DP over
	// positions: ways[b] = number of combinations using b modified sites.
	type posGroup struct{ mods int }
	var groups []posGroup
	for i := 0; i < len(options); {
		j := i
		for j < len(options) && options[j].pos == options[i].pos {
			j++
		}
		groups = append(groups, posGroup{mods: j - i})
		i = j
	}
	ways := make([]int, c.MaxPerPep+1)
	ways[0] = 1
	for _, g := range groups {
		for b := c.MaxPerPep; b >= 1; b-- {
			ways[b] += ways[b-1] * g.mods
		}
	}
	total := 0
	for _, w := range ways {
		total += w
	}
	return total
}
