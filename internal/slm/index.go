// Package slm implements a shared-peak fragment-ion index in the style of
// SLM-Transform (Haseeb et al., 2019), the substrate search engine the LBE
// layer distributes.
//
// The index discretizes every theoretical fragment ion of every indexed
// peptide variant into mass buckets of width Resolution and stores, per
// bucket, the list of spectrum rows containing such an ion (a CSR layout:
// one offsets array over buckets, one flat row-id array). Querying walks,
// for each experimental peak, the bucket window covering the fragment-mass
// tolerance, accumulates shared-peak counts on a scorecard, filters rows by
// the shared-peak threshold and the precursor window, and scores the
// survivors.
package slm

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"lbe/internal/mass"
	"lbe/internal/mmapio"
	"lbe/internal/mods"
	"lbe/internal/spectrum"
)

// Params configures index construction and querying. The defaults mirror
// the paper's §V-A3 settings.
type Params struct {
	Resolution     float64        // bucket width r (Da); paper 0.01
	FragmentTol    mass.Tolerance // ∆F; paper 0.05 Da
	PrecursorTol   mass.Tolerance // ∆M; paper ∞ (open search)
	MinSharedPeaks int            // Shpeak; paper 4
	Mods           mods.Config    // variable modification settings
	MaxQueryPeaks  int            // top-N peak preprocessing; paper 100
	// MaxFragmentMZ bounds the indexed fragment m/z range (the instrument
	// scan range); ions above it are neither indexed nor matched.
	MaxFragmentMZ float64
	// IonSeries selects the fragment series to predict and index; nil
	// means the paper's model (singly charged b and y ions).
	IonSeries []spectrum.IonKind
}

// series returns the effective ion series.
func (p Params) series() []spectrum.IonKind {
	if len(p.IonSeries) == 0 {
		return spectrum.DefaultSeries()
	}
	return p.IonSeries
}

// DefaultParams returns the paper's search settings: r = 0.01,
// ∆F = 0.05 Da, ∆M = ∞ (open search), Shpeak ≥ 4, the paper's three
// variable mods with at most 5 modified residues, 100 query peaks.
func DefaultParams() Params {
	return Params{
		Resolution:     0.01,
		FragmentTol:    mass.Da(0.05),
		PrecursorTol:   mass.Open(),
		MinSharedPeaks: 4,
		Mods:           mods.DefaultConfig(),
		MaxQueryPeaks:  100,
		MaxFragmentMZ:  2000,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Resolution <= 0 {
		return fmt.Errorf("slm: resolution %g must be positive", p.Resolution)
	}
	if p.MinSharedPeaks < 1 {
		return fmt.Errorf("slm: min shared peaks %d must be >= 1", p.MinSharedPeaks)
	}
	if p.FragmentTol.Value < 0 || p.PrecursorTol.Value < 0 {
		return fmt.Errorf("slm: negative tolerance")
	}
	if p.MaxFragmentMZ <= 0 {
		return fmt.Errorf("slm: MaxFragmentMZ %g must be positive", p.MaxFragmentMZ)
	}
	seen := map[spectrum.IonKind]bool{}
	for _, k := range p.series() {
		if k > spectrum.IonY2 {
			return fmt.Errorf("slm: unknown ion kind %d", k)
		}
		if seen[k] {
			return fmt.Errorf("slm: duplicate ion kind %v", k)
		}
		seen[k] = true
	}
	return p.Mods.Validate()
}

// capBucket returns the last indexable bucket under MaxFragmentMZ.
func (p Params) capBucket() int {
	return mass.NewBucketer(p.Resolution).Bucket(p.MaxFragmentMZ)
}

// Row is one indexed theoretical spectrum: a peptide variant. The field
// order packs it into exactly 16 bytes (one quarter cache line, no
// padding), which doubles as the on-disk record layout so a
// memory-mapped store can serve rows zero-copy (see OpenIndexMapped).
type Row struct {
	Precursor float64 // neutral mass including mod deltas
	Peptide   uint32  // local (virtual) peptide index within this partition
	NumIons   uint16  // fragment ions indexed for this row
	Flags     uint16  // rowFlag* bits
}

// rowFlagModified marks a row carrying at least one modification. Flags
// is a bitfield (not a bool) so mapped bytes are valid for every value.
const rowFlagModified = 1 << 0

// rowMemBytes is the in-memory (and on-disk) size of a Row. The array
// conversion is a compile-time assertion that the struct has no padding.
const rowMemBytes = 16

var _ [rowMemBytes]byte = [unsafe.Sizeof(Row{})]byte{}

// Modified reports whether the row carries any modification.
func (r Row) Modified() bool { return r.Flags&rowFlagModified != 0 }

// Index is an immutable fragment-ion index over a set of peptides
// (typically one LBE partition). Build with Build; query with Search.
type Index struct {
	params Params

	rows []Row

	// CSR ion index: for bucket b, rows with an ion in b are
	// ids[offsets[b]:offsets[b+1]]. Postings hold *mass-sorted row
	// positions* (indexes into perm/precs, not into rows), and each
	// bucket's list is ascending — so a narrow precursor window, which is
	// one contiguous range of sorted positions, can be intersected with a
	// bucket by binary search (see precursorWindow / searchScratch).
	offsets []uint32
	ids     []uint32

	// Precursor-mass order over the rows: perm[s] is the original row id
	// of the s-th lightest row (ties broken by row id), and precs[s] is
	// its neutral precursor mass, ascending. rows itself stays in build
	// order so row ids in Match.Row and Row() are stable across versions.
	perm  []uint32
	precs []float64

	numBuckets int
	buildPeak  int // peak transient bytes observed during construction

	// mapping is non-nil when rows/offsets/ids are zero-copy views into a
	// memory-mapped store file (see OpenIndexMapped); Close releases it.
	mapping *mmapio.Mapping

	// verifyFn holds the deferred content validation of a mapped open
	// (section CRCs, padding, shape); nil for indexes validated at build
	// or decode time. verifyDone/verifyMu latch its one execution into
	// verifyErr with closure-free double-checked locking, keeping the
	// warm Verify fast path (an atomic load) legal inside //lbe:hotpath
	// Search.
	verifyFn   func() error
	verifyMu   sync.Mutex
	verifyDone atomic.Bool
	verifyErr  error
}

// NumRows returns the number of indexed spectra (peptide variants).
func (ix *Index) NumRows() int { return len(ix.rows) }

// NumPeptides returns the number of distinct local peptides indexed.
func (ix *Index) NumPeptides() int {
	seen := uint32(0)
	for _, r := range ix.rows {
		if r.Peptide+1 > seen {
			seen = r.Peptide + 1
		}
	}
	return int(seen)
}

// NumIons returns the total number of indexed fragment-ion postings.
func (ix *Index) NumIons() int { return len(ix.ids) }

// Params returns the parameters the index was built with.
func (ix *Index) Params() Params { return ix.params }

// Row returns row metadata by row id.
func (ix *Index) Row(id uint32) Row { return ix.rows[id] }

// rowIons is one enumerated index row with its in-range fragment ions,
// staged until the CSR arrays are assembled.
type rowIons struct {
	row  Row
	ions []float64
}

// buildShard is one worker's contiguous slice of the peptide list during
// parallel construction. Shards are merged in peptide order, so the
// assembled index is byte-identical to the serial build.
type buildShard struct {
	lo, hi    int // peptide range [lo, hi)
	pending   []rowIons
	counts    []uint32 // ion count per bucket, len maxBucket+1
	maxBucket int
	totalIons int
	err       error
}

// enumerate runs pass 1 for one shard: per-peptide variant expansion, ion
// prediction, scan-range filtering and per-bucket ion counting.
func (sh *buildShard) enumerate(peptides []string, params Params) {
	bucketer := mass.NewBucketer(params.Resolution)
	capB := params.capBucket()
	sh.maxBucket = -1
	for pi := sh.lo; pi < sh.hi; pi++ {
		seq := peptides[pi]
		variants, err := params.Mods.Variants(seq)
		if err != nil {
			sh.err = fmt.Errorf("slm: peptide %d: %w", pi, err)
			return
		}
		for _, v := range variants {
			th, err := spectrum.PredictIons(seq, v, params.Mods.Mods, params.series())
			if err != nil {
				sh.err = fmt.Errorf("slm: peptide %d (%q): %w", pi, seq, err)
				return
			}
			// Keep only ions inside the instrument scan range.
			ions := th.Ions[:0:0]
			for _, ion := range th.Ions {
				b := bucketer.Bucket(ion)
				if b > capB {
					continue
				}
				if b > sh.maxBucket {
					sh.maxBucket = b
					for len(sh.counts) <= b {
						sh.counts = append(sh.counts, 0)
					}
				}
				sh.counts[b]++
				ions = append(ions, ion)
			}
			sh.totalIons += len(ions)
			var flags uint16
			if v.IsModified() {
				flags |= rowFlagModified
			}
			sh.pending = append(sh.pending, rowIons{
				row: Row{
					Peptide:   uint32(pi),
					Precursor: th.Precursor,
					NumIons:   uint16(len(ions)),
					Flags:     flags,
				},
				ions: ions,
			})
		}
	}
}

// Build constructs the index over the given peptide sequences. Each
// peptide contributes one row per modification variant (the unmodified
// form included). Peptides shorter than 2 residues are rejected.
//
// Construction is parallelized over all available cores; the resulting
// index is byte-identical to BuildSerial's for any worker count.
func Build(peptides []string, params Params) (*Index, error) {
	return BuildWorkers(peptides, params, 0)
}

// BuildSerial is the single-goroutine reference construction, kept as the
// correctness oracle for the parallel build.
func BuildSerial(peptides []string, params Params) (*Index, error) {
	return BuildWorkers(peptides, params, 1)
}

// BuildWorkers constructs the index with the given number of worker
// goroutines (0 or negative means one per available core). Peptides are
// sharded contiguously; each worker enumerates its shard's rows and
// per-bucket ion counts, and the shards are merged deterministically into
// the CSR layout, so the output does not depend on the worker count.
func BuildWorkers(peptides []string, params Params, workers int) (*Index, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(peptides) {
		workers = len(peptides)
	}
	if workers < 1 {
		workers = 1
	}
	ix := &Index{params: params}

	// Pass 1 (parallel): enumerate rows and count ions per bucket, one
	// contiguous peptide shard per worker.
	shards := make([]*buildShard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := len(peptides) * w / workers
		hi := len(peptides) * (w + 1) / workers
		shards[w] = &buildShard{lo: lo, hi: hi}
		wg.Add(1)
		go func(sh *buildShard) {
			defer wg.Done()
			sh.enumerate(peptides, params)
		}(shards[w])
	}
	wg.Wait()
	// Shards cover ascending peptide ranges and each stops at its first
	// error, so the lowest failing shard holds the globally first error —
	// the same one the serial build would report.
	for _, sh := range shards {
		if sh.err != nil {
			return nil, sh.err
		}
	}

	maxBucket := 0
	totalIons := 0
	numRows := 0
	for _, sh := range shards {
		if sh.maxBucket > maxBucket {
			maxBucket = sh.maxBucket
		}
		totalIons += sh.totalIons
		numRows += len(sh.pending)
	}

	ix.numBuckets = maxBucket + 1
	ix.rows = make([]Row, numRows)
	ix.offsets = make([]uint32, ix.numBuckets+1)
	ix.ids = make([]uint32, totalIons)

	// CSR offsets from the summed per-shard bucket counts.
	sum := uint32(0)
	for b := 0; b < ix.numBuckets; b++ {
		ix.offsets[b] = sum
		for _, sh := range shards {
			if b < len(sh.counts) {
				sum += sh.counts[b]
			}
		}
	}
	ix.offsets[ix.numBuckets] = sum

	// Pass 2 (parallel): each shard fills its rows and postings. Row ids
	// are assigned in shard order, and a shard's write cursor for bucket b
	// starts after all earlier shards' postings in b, so every bucket's
	// posting list ends up in ascending row-id order — exactly the serial
	// fill order.
	base := make([]uint32, ix.numBuckets)
	copy(base, ix.offsets[:ix.numBuckets])
	ridBase := 0
	for _, sh := range shards {
		cursor := make([]uint32, len(sh.counts))
		copy(cursor, base[:len(sh.counts)])
		for b, c := range sh.counts {
			base[b] += c
		}
		wg.Add(1)
		go func(sh *buildShard, ridBase int, cursor []uint32) {
			defer wg.Done()
			bucketer := mass.NewBucketer(params.Resolution)
			for i, ri := range sh.pending {
				rid := uint32(ridBase + i)
				ix.rows[rid] = ri.row
				for _, ion := range ri.ions {
					b := bucketer.Bucket(ion)
					ix.ids[cursor[b]] = rid
					cursor[b]++
				}
			}
		}(sh, ridBase, cursor)
		ridBase += len(sh.pending)
	}
	wg.Wait()

	ix.sortByPrecursor()

	// The transient footprint during construction is the pending ion
	// lists plus the final arrays — the "2x index memory" effect the
	// paper describes for distributed SLM construction.
	ix.buildPeak = ix.MemoryBytes() + 8*totalIons

	return ix, nil
}

// sortByPrecursor derives the precursor-mass order over the rows and
// rewrites the postings in terms of it: perm/precs are built by sorting
// row ids on (precursor, id), every posting is remapped from row id to
// sorted position, and each bucket's posting list is re-sorted ascending.
// It runs once, at the end of every build; SLMX files persist the result.
// The input postings may be in any order; the output is deterministic —
// byte-identical for any build worker count.
func (ix *Index) sortByPrecursor() {
	n := len(ix.rows)
	rows := ix.rows
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	slices.SortFunc(perm, func(a, b uint32) int {
		if rows[a].Precursor != rows[b].Precursor {
			if rows[a].Precursor < rows[b].Precursor {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	inv := make([]uint32, n)
	precs := make([]float64, n)
	for s, o := range perm {
		inv[o] = uint32(s)
		precs[s] = rows[o].Precursor
	}
	for i, rid := range ix.ids {
		ix.ids[i] = inv[rid]
	}
	for b := 0; b < ix.numBuckets; b++ {
		slices.Sort(ix.ids[ix.offsets[b]:ix.offsets[b+1]])
	}
	ix.perm = perm
	ix.precs = precs
}

// MemoryBytes returns the resident size of the index structures in bytes:
// packed 16-byte rows, offsets (4 per bucket), ion postings (4 each) and
// the precursor-order columns (12 per row). This is the quantity reported
// by the Fig. 5 experiment. For a mapped index (OpenIndexMapped) it is
// the mapped footprint: the bytes are page-cache backed and shared across
// co-located processes.
func (ix *Index) MemoryBytes() int {
	return rowMemBytes*len(ix.rows) + 4*len(ix.offsets) + 4*len(ix.ids) +
		4*len(ix.perm) + 8*len(ix.precs)
}

// BuildPeakBytes returns the peak transient memory observed while the
// index was constructed (index plus staging ion lists).
func (ix *Index) BuildPeakBytes() int { return ix.buildPeak }

// bucketSpan returns the inclusive bucket index range for the fragment
// window around mz, clamped to the index; blo > bhi means no buckets.
//
//lbe:hotpath
func (ix *Index) bucketSpan(mz float64) (blo, bhi int) {
	bucketer := mass.NewBucketer(ix.params.Resolution)
	blo, bhi = bucketer.Range(mz, ix.params.FragmentTol)
	if blo < 0 {
		blo = 0
	}
	if bhi >= ix.numBuckets {
		bhi = ix.numBuckets - 1
	}
	return blo, bhi
}
