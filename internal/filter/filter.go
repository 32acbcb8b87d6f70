// Package filter implements the two competing database-filtration methods
// the paper surveys (§II-A) alongside the shared-peak method of the SLM
// index: peptide precursor-mass filtration and sequence-tag filtration.
// They serve as in-repo baselines for candidate-reduction comparisons —
// each answers "which reference peptides could match this query?" with a
// different trade-off between selectivity and robustness to
// modifications.
package filter

import (
	"fmt"
	"sort"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// Filter narrows a peptide database to the candidates for one query
// spectrum, returning candidate peptide indices in ascending order.
type Filter interface {
	// Candidates returns the indices of peptides that pass the filter for
	// the query spectrum.
	Candidates(q spectrum.Experimental) []int
	// Name identifies the filtration method.
	Name() string
}

// --- precursor-mass filtration (§II-A1) ---

// Precursor filters by peptide precursor mass: candidates are the
// peptides whose neutral mass lies within the query's precursor window.
// Fast and very selective, but blind to unknown modifications (the "dark
// matter" problem): a modified spectrum's precursor is shifted out of the
// window of its true peptide.
type Precursor struct {
	tol mass.Tolerance
	// sorted (mass, index) pairs
	masses []float64
	order  []int
}

// NewPrecursor builds the filter over the peptide sequences with the
// given precursor tolerance.
func NewPrecursor(peptides []string, tol mass.Tolerance) (*Precursor, error) {
	f := &Precursor{tol: tol, masses: make([]float64, len(peptides)), order: make([]int, len(peptides))}
	for i, seq := range peptides {
		m, err := mass.Peptide(seq)
		if err != nil {
			return nil, fmt.Errorf("filter: peptide %d: %w", i, err)
		}
		f.masses[i] = m
		f.order[i] = i
	}
	sort.Slice(f.order, func(a, b int) bool {
		if f.masses[f.order[a]] != f.masses[f.order[b]] {
			return f.masses[f.order[a]] < f.masses[f.order[b]]
		}
		return f.order[a] < f.order[b]
	})
	return f, nil
}

// Name implements Filter.
func (f *Precursor) Name() string { return "precursor-mass" }

// Candidates implements Filter.
func (f *Precursor) Candidates(q spectrum.Experimental) []int {
	qm := q.PrecursorMass()
	if f.tol.IsOpen() {
		out := make([]int, len(f.order))
		for i := range out {
			out[i] = i
		}
		return out
	}
	lo, hi := f.tol.Window(qm)
	// Binary search the sorted order for the window.
	start := sort.Search(len(f.order), func(i int) bool {
		return f.masses[f.order[i]] >= lo
	})
	var out []int
	for i := start; i < len(f.order) && f.masses[f.order[i]] <= hi; i++ {
		out = append(out, f.order[i])
	}
	sort.Ints(out)
	return out
}

// --- sequence-tag filtration (§II-A2) ---

// Tag filters by partial-sequence tags inferred from the spectrum: gaps
// between fragment peaks that match amino-acid residue masses spell out
// short subsequences; a peptide is a candidate if it contains one of the
// extracted tags (in b-ion reading order or reversed, as y-ion ladders
// read C-to-N). Robust to modifications outside the tag region.
type Tag struct {
	k       int
	gapTol  float64
	minTags int
	// kmer -> sorted peptide indices containing it
	postings map[string][]int
	total    int
}

// TagConfig parameterizes tag filtration.
type TagConfig struct {
	K      int     // tag length in residues (typical 3)
	GapTol float64 // absolute tolerance when matching a peak gap to a residue mass (Da)
}

// DefaultTagConfig returns k=3 tags with 0.02 Da gap tolerance.
func DefaultTagConfig() TagConfig { return TagConfig{K: 3, GapTol: 0.02} }

// NewTag builds the k-mer index over the peptides.
func NewTag(peptides []string, cfg TagConfig) (*Tag, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("filter: tag length %d must be >= 1", cfg.K)
	}
	if cfg.GapTol <= 0 {
		return nil, fmt.Errorf("filter: gap tolerance %g must be positive", cfg.GapTol)
	}
	f := &Tag{k: cfg.K, gapTol: cfg.GapTol, postings: map[string][]int{}, total: len(peptides)}
	for i, seq := range peptides {
		if !mass.ValidSequence(seq) {
			return nil, fmt.Errorf("filter: peptide %d has non-standard residues", i)
		}
		seen := map[string]bool{}
		for j := 0; j+cfg.K <= len(seq); j++ {
			kmer := seq[j : j+cfg.K]
			if !seen[kmer] {
				seen[kmer] = true
				f.postings[kmer] = append(f.postings[kmer], i)
			}
		}
	}
	return f, nil
}

// Name implements Filter.
func (f *Tag) Name() string { return "sequence-tag" }

// residueByMass returns the amino acids whose residue mass lies within
// tol of gap. Isobaric residues (L/I) both match.
func residueByMass(gap, tol float64) []byte {
	var out []byte
	for _, aa := range []byte("ACDEFGHIKLMNPQRSTVWY") {
		if m := mass.MustResidue(aa); gap >= m-tol && gap <= m+tol {
			out = append(out, aa)
		}
	}
	return out
}

// ExtractTags infers length-k residue strings from the spectrum graph
// (the GutenTag/DirecTag construction): nodes are peaks, and a directed
// edge labeled with amino acid a connects peaks whose m/z difference
// matches a's residue mass within gapTol. Every k-edge path spells a tag;
// each tag is emitted forward and reversed (a y-ion ladder reads C-to-N).
// Mixed b/y peak lists therefore still yield tags: each ion series forms
// its own ladder inside the graph.
func ExtractTags(q spectrum.Experimental, k int, gapTol float64) []string {
	peaks := q.Peaks
	if len(peaks) < k+1 {
		return nil
	}
	const minRes, maxRes = 57.0, 187.0 // G..W residue mass range

	// Build edges: edges[i] lists (next peak, residue letter).
	type edge struct {
		to int
		aa byte
	}
	edges := make([][]edge, len(peaks))
	for i := range peaks {
		for j := i + 1; j < len(peaks); j++ {
			gap := peaks[j].MZ - peaks[i].MZ
			if gap < minRes-gapTol {
				continue
			}
			if gap > maxRes+gapTol {
				break // peaks sorted by m/z
			}
			for _, aa := range residueByMass(gap, gapTol) {
				edges[i] = append(edges[i], edge{to: j, aa: aa})
			}
		}
	}

	seen := map[string]bool{}
	var tags []string
	emit := func(s []byte) {
		if !seen[string(s)] {
			tag := string(s)
			seen[tag] = true
			tags = append(tags, tag)
		}
		rev := make([]byte, len(s))
		for i := range rev {
			rev[i] = s[len(s)-1-i]
		}
		if !seen[string(rev)] {
			tag := string(rev)
			seen[tag] = true
			tags = append(tags, tag)
		}
	}
	var walk func(node, depth int, cur []byte)
	walk = func(node, depth int, cur []byte) {
		if depth == k {
			emit(cur)
			return
		}
		for _, e := range edges[node] {
			walk(e.to, depth+1, append(cur, e.aa))
		}
	}
	for start := range peaks {
		walk(start, 0, nil)
	}
	return tags
}

// Candidates implements Filter.
func (f *Tag) Candidates(q spectrum.Experimental) []int {
	tags := ExtractTags(q, f.k, f.gapTol)
	set := map[int]bool{}
	for _, tag := range tags {
		for _, pi := range f.postings[tag] {
			set[pi] = true
		}
	}
	out := make([]int, 0, len(set))
	for pi := range set {
		out = append(out, pi)
	}
	sort.Ints(out)
	return out
}
