// Package oracle is the ground truth of the byte-identity chain
// (docs/ARCHITECTURE.md). It holds five adversarial corpora, the three
// result shapes every path is searched under, the two references — a
// RunSerial run and slm.BruteForce — and one comparator. Only _test.go
// files import it.
//
// The engine, server and router tests each declare their paths as the
// rows of one table (TestMatrix in their matrix_test.go) and run every
// row on every Cell, a corpus × shape pair. A row searches Cell.Corpus
// under Cell.Config in its own way and holds the answer to the cell's
// RunSerial result with Check (a Result) or Wire (reply bytes). Searches
// that take a context run in the rows; this package holds data and
// comparisons only.
//
// To add a row, append it to one of the tables: it then runs on every
// corpus under every shape, and one that cannot run a cell says why in
// the row. To add a corpus, append its builder to builders: it returns
// peptides and queries, and the three extra spectra every corpus carries
// are appended to it. Every row in every table then runs on it.
//
// The engine's other tests and fuzz targets search these corpora too
// (CellOf names one cell), and compare with PSMs: there is no second
// corpus and no second comparator. The corpora are built once per test
// binary and shared, so no test may write to their slices.
package oracle

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"lbe/internal/digest"
	"lbe/internal/engine"
	"lbe/internal/gen"
	"lbe/internal/mass"
	"lbe/internal/mods"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// Corpus is one named search input: a peptide database and its queries.
// Tests share one Corpus per test binary, so they treat its slices as
// read-only and copy before they append.
type Corpus struct {
	Name     string
	Peptides []string
	Queries  []spectrum.Experimental
	// Truth is the peptide each generated query was sampled from, on the
	// generated corpus only; the three extras have none.
	Truth []gen.GroundTruth
	// brute indexes the queries the brute-force reference searches: all
	// of them except on generated, where slm.BruteForce costs ~35 ms a
	// query, so there it is the first one and the three extras.
	brute []int
}

// Shape is how deep and how wide a search is: the precursor tolerance
// and the number of PSMs reported per query.
type Shape struct {
	Name string
	Tol  mass.Tolerance
	TopK int
}

// narrow is the Da tolerance of the windowed shape; the window-edge
// corpus puts queries exactly on its edges.
const narrow = 0.5

// Shapes are the three shapes every row runs under. TopK 3 cuts inside
// the ties corpus's eight-way tie.
var Shapes = []Shape{
	{"open-all", mass.Open(), 0},
	{"open-top3", mass.Open(), 3},
	{"0.5Da-top10", mass.Da(narrow), 10},
}

// Cell is one corpus searched under one shape.
type Cell struct {
	Corpus *Corpus
	Shape  Shape
}

// Name is the cell's subtest name, corpus/shape.
func (c Cell) Name() string { return c.Corpus.Name + "/" + c.Shape.Name }

// Config is the engine configuration of the cell: the paper's defaults
// with one modification per peptide, the shape's tolerance and TopK.
func (c Cell) Config() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Params.Mods = mods.Config{Mods: mods.PaperSet(), MaxPerPep: 1}
	cfg.Params.PrecursorTol = c.Shape.Tol
	cfg.TopK = c.Shape.TopK
	return cfg
}

// Cells returns every corpus × shape pair.
func Cells(t testing.TB) []Cell {
	var out []Cell
	for _, c := range Corpora(t) {
		for _, s := range Shapes {
			out = append(out, Cell{c, s})
		}
	}
	return out
}

// Generated returns the generated corpus, for tests outside the matrix
// that need a realistic database.
func Generated(t testing.TB) *Corpus { return Corpora(t)[0] }

// CellOf returns the cell of the named corpus under the named shape, for
// tests outside the matrix that need one corpus under one configuration.
func CellOf(t testing.TB, corpus, shape string) Cell {
	t.Helper()
	for _, c := range Corpora(t) {
		for _, s := range Shapes {
			if c.Name == corpus && s.Name == shape {
				return Cell{c, s}
			}
		}
	}
	t.Fatalf("oracle: no cell %s/%s", corpus, shape)
	return Cell{}
}

var builders = []struct {
	name  string
	build func() (Corpus, error)
	brute int // leading queries the brute-force reference searches; 0 = all
}{
	// A synthetic proteome's tryptic digest and a skewed query run.
	{"generated", func() (Corpus, error) { return generated(10, 2, 0, 60) }, 1},
	// Every family query's best score is shared by eight copies of one
	// sequence, and the twin query's by two variants of one peptide, a
	// tie only the precursor key of engine.ComparePSM breaks.
	{"ties", ties, 0},
	// One peptide with no modifiable residue: an index of one row.
	{"single-row", func() (Corpus, error) {
		q, err := ladder(1, "PEPTIDER", 1)
		return Corpus{Peptides: []string{"PEPTIDER"}, Queries: []spectrum.Experimental{q}}, err
	}, 0},
	// Queries exactly on, and one float step past, each edge of the
	// narrow window around a row's precursor.
	{"window-edge", windowEdge, 0},
	// A smaller digest sorted by length, so the chunk policy deals the
	// longest peptides (most variants, most postings) to the last shard.
	{"skewed", func() (Corpus, error) {
		c, err := generated(1, 1, 48, 8)
		slices.SortFunc(c.Peptides, func(a, b string) int {
			return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
		})
		c.Truth = nil // sorting moved the peptides it names
		return c, err
	}, 0},
}

var (
	corporaOnce sync.Once
	corporaVal  []*Corpus
	corporaErr  error
)

// Corpora returns the corpora, built once per test binary.
func Corpora(t testing.TB) []*Corpus {
	t.Helper()
	corporaOnce.Do(func() {
		for _, b := range builders {
			c, err := b.build()
			if err == nil {
				c.Queries, err = withExtras(c.Peptides[0], c.Queries)
			}
			if err != nil {
				corporaErr = fmt.Errorf("oracle: corpus %s: %w", b.name, err)
				return
			}
			c.Name = b.name
			for i := range c.Queries {
				if b.brute == 0 || i < b.brute || i >= len(c.Queries)-3 {
					c.brute = append(c.brute, i)
				}
			}
			corporaVal = append(corporaVal, &c)
		}
	})
	if corporaErr != nil {
		t.Fatal(corporaErr)
	}
	return corporaVal
}

// generated is a synthetic proteome's deduplicated tryptic digest, cut
// to its first limit peptides when limit > 0, and a query run sampled
// from it with its ground truth.
func generated(families, homologs, limit, spectra int) (Corpus, error) {
	recs, err := gen.Proteome(gen.ProteomeConfig{
		Seed: 21, NumFamilies: families, Homologs: homologs, MeanLen: 300, MutationRate: 0.03,
	})
	if err != nil {
		return Corpus{}, err
	}
	seqs := make([]string, len(recs))
	for i, r := range recs {
		seqs[i] = r.Sequence
	}
	peps, err := digest.DefaultConfig().Proteome(seqs)
	if err != nil {
		return Corpus{}, err
	}
	peptides := digest.Sequences(digest.Dedup(peps))
	if limit > 0 {
		peptides = peptides[:min(limit, len(peptides))]
	}
	scfg := gen.DefaultSpectraConfig()
	scfg.NumSpectra = spectra
	scfg.Seed = 22
	queries, truth, err := gen.Spectra(peptides, scfg)
	return Corpus{Peptides: peptides, Queries: queries, Truth: truth}, err
}

// ladder is seq's unmodified fragment ladder as a query at charge z.
func ladder(scan int, seq string, z int) (spectrum.Experimental, error) {
	th, err := spectrum.Predict(seq)
	q := spectrum.Experimental{Scan: scan, PrecursorMZ: mass.MZ(th.Precursor, z), Charge: z}
	for i, ion := range th.Ions {
		q.Peaks = append(q.Peaks, spectrum.Peak{MZ: ion, Intensity: float64(1 + i%4)})
	}
	return q, err
}

func ties() (Corpus, error) {
	family := []string{"LGEYGFQNALIVR", "LGEYGFQNAIIVR", "VGEYGFQNALIVR"}
	var peptides []string
	var queries []spectrum.Experimental
	for copies := 0; copies < 8; copies++ {
		peptides = append(peptides, family...)
	}
	for i, seq := range family {
		q, err := ladder(i+1, seq, 2)
		if err != nil {
			return Corpus{}, err
		}
		queries = append(queries, q)
	}

	// MPEPTIDER's y ions hold no M, so both variants match all eight;
	// one more peak each — the oxidized b1 below every other peak, the
	// unmodified b8 above — gives both the same shared count and score.
	// The oxidized row, heavier, reaches the threshold first, so the index
	// emits it first and only the precursor key puts it second.
	const twin = "MPEPTIDER"
	variants, err := mods.Config{Mods: mods.PaperSet(), MaxPerPep: 1}.Variants(twin)
	if err != nil || len(variants) != 2 {
		return Corpus{}, fmt.Errorf("%s has %d variants (%v), want 2", twin, len(variants), err)
	}
	th, err := spectrum.Predict(twin)
	if err != nil {
		return Corpus{}, err
	}
	q := spectrum.Experimental{Scan: len(family) + 1, PrecursorMZ: mass.MZ(th.Precursor, 2), Charge: 2}
	for _, mz := range []float64{spectrum.BIon(twin, 1) + variants[1].Delta, spectrum.BIon(twin, 8)} {
		q.Peaks = append(q.Peaks, spectrum.Peak{MZ: mz, Intensity: 1})
	}
	for k := 1; k < len(twin); k++ {
		q.Peaks = append(q.Peaks, spectrum.Peak{MZ: spectrum.YIon(twin, k), Intensity: 1})
	}
	q.SortPeaks()
	params := slm.DefaultParams()
	params.Mods.MaxPerPep = 1
	ms, err := slm.BruteForce([]string{twin}, params, q)
	if err != nil || len(ms) != 2 || ms[0].Score != ms[1].Score || ms[0].Shared != ms[1].Shared {
		return Corpus{}, fmt.Errorf("twin query matches %+v (%v), want two variants tied on score and shared peaks", ms, err)
	}
	return Corpus{Peptides: append(peptides, twin), Queries: append(queries, q)}, nil
}

// windowEdge puts four queries around the unmodified row of its first
// peptide, whose deamidated variants sit 0.98 Da above it: one whose
// narrow window's upper edge is exactly that row's precursor, one whose
// lower edge is, and each of those moved one float step outwards.
func windowEdge() (Corpus, error) {
	peptides := []string{"LGEYGFQNALIVR", "PEPTIDER"}
	q, err := ladder(0, peptides[0], 1)
	if err != nil {
		return Corpus{}, err
	}
	params := slm.DefaultParams()
	params.Mods.MaxPerPep = 1
	ix, err := slm.Build(peptides, params)
	if err != nil {
		return Corpus{}, err
	}
	// Row ids are places in mass order, so the row has to be looked for.
	m, tol := -1.0, mass.Da(narrow)
	for id := range ix.NumRows() {
		if r := ix.Row(uint32(id)); r.Peptide == 0 && !r.Modified() {
			m = r.Precursor
			break
		}
	}
	if m < 0 {
		return Corpus{}, fmt.Errorf("no row is %s unmodified", peptides[0])
	}
	admits := func(mz float64) bool {
		return tol.Contains(spectrum.Experimental{PrecursorMZ: mz, Charge: 1}.PrecursorMass(), m)
	}
	var queries []spectrum.Experimental
	for _, dir := range []float64{-1, 1} {
		in, away := mass.MZ(m+dir*narrow, 1), math.Inf(int(dir))
		for i := 0; !admits(in); i++ {
			if in = math.Nextafter(in, m); i > 64 {
				return Corpus{}, fmt.Errorf("no precursor admits %v", m)
			}
		}
		for admits(math.Nextafter(in, away)) {
			in = math.Nextafter(in, away)
		}
		for _, mz := range []float64{in, math.Nextafter(in, away)} {
			q.Scan, q.PrecursorMZ = len(queries)+1, mz
			queries = append(queries, q)
		}
	}
	return Corpus{Peptides: peptides, Queries: queries}, nil
}

// withExtras appends the three spectra every corpus carries, numbered
// after its queries and precursored at seq's mass: one with no peaks,
// one of MaxQueryPeaks+1 peaks (seq's ladder above filler of distinct
// lower intensities, one of which preprocessing drops), and one whose
// peaks all lie above the indexed fragment range, so no bucket is hit.
func withExtras(seq string, queries []spectrum.Experimental) ([]spectrum.Experimental, error) {
	params := slm.DefaultParams()
	wide, err := ladder(len(queries)+2, seq, 2)
	if err != nil {
		return nil, err
	}
	for i := range wide.Peaks {
		wide.Peaks[i].Intensity = float64(1000 + i)
	}
	for i := 0; len(wide.Peaks) <= params.MaxQueryPeaks; i++ {
		wide.Peaks = append(wide.Peaks, spectrum.Peak{MZ: 150.5 + 17.3*float64(i), Intensity: float64(1 + i)})
	}
	wide.SortPeaks()
	none := spectrum.Experimental{Scan: len(queries) + 3, PrecursorMZ: wide.PrecursorMZ, Charge: 2}
	for i := 0; i < 8; i++ {
		none.Peaks = append(none.Peaks, spectrum.Peak{MZ: params.MaxFragmentMZ + 100 + float64(i), Intensity: 10})
	}
	empty := spectrum.Experimental{Scan: len(queries) + 1, PrecursorMZ: wide.PrecursorMZ, Charge: 2}
	return append(queries, empty, wide, none), nil
}

// cached holds one lazily computed reference.
type cached struct {
	once sync.Once
	res  *engine.Result
	psms [][]engine.PSM
	err  error
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*cached{}
)

// memo computes key's reference once per test binary.
func memo(key string, fill func(*cached)) *cached {
	cacheMu.Lock()
	e := cache[key]
	if e == nil {
		e = &cached{}
		cache[key] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() { fill(e) })
	return e
}

// Serial is the reference every row is held to: RunSerial on the cell,
// computed once per test binary.
func (c Cell) Serial(t testing.TB) *engine.Result {
	t.Helper()
	e := memo("serial/"+c.Name(), func(e *cached) {
		e.res, e.err = engine.RunSerial(c.Corpus.Peptides, c.Corpus.Queries, c.Config())
	})
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.res
}

// Brute is slm.BruteForce on the preprocessed queries Corpus.brute names,
// sorted by engine.ComparePSM and cut to TopK: the one reference that
// shares no index layout with any path. It returns the query indices
// beside their PSMs. The search runs once per corpus × tolerance.
func (c Cell) Brute(t testing.TB) ([]int, [][]engine.PSM) {
	t.Helper()
	cfg := c.Config()
	e := memo("brute/"+c.Corpus.Name+"/"+cfg.Params.PrecursorTol.String(), func(e *cached) {
		e.psms = make([][]engine.PSM, len(c.Corpus.brute))
		errs := make([]error, len(c.Corpus.brute))
		var wg sync.WaitGroup
		for i, qi := range c.Corpus.brute {
			wg.Add(1)
			go func(i int, q spectrum.Experimental) {
				defer wg.Done()
				var ms []slm.Match
				ms, errs[i] = slm.BruteForce(c.Corpus.Peptides, cfg.Params, q)
				for _, m := range ms {
					e.psms[i] = append(e.psms[i], engine.PSM{Peptide: m.Peptide, Shared: m.Shared, Score: m.Score, Precursor: m.Precursor})
				}
				slices.SortFunc(e.psms[i], engine.ComparePSM)
			}(i, spectrum.Preprocess(c.Corpus.Queries[qi], cfg.Params.MaxQueryPeaks))
		}
		wg.Wait()
		e.err = errors.Join(errs...)
	})
	if e.err != nil {
		t.Fatal(e.err)
	}
	out := make([][]engine.PSM, len(e.psms))
	for i, ms := range e.psms {
		if k := c.Shape.TopK; k > 0 && len(ms) > k {
			ms = ms[:k]
		}
		out[i] = ms
	}
	return c.Corpus.brute, out
}
