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
	if err := spectrum.ValidateSeries(p.series()); err != nil {
		return fmt.Errorf("slm: %w", err)
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

	// rows in ascending (precursor, enumeration order): a row's id — in a
	// posting, an accumulator slot, Match.Row and Row() — is its place in
	// mass order, so a precursor window is one contiguous id range.
	rows []Row

	// CSR ion index: for bucket b, rows with an ion in b are
	// ids[offsets[b]:offsets[b+1]], ascending — so a narrow precursor
	// window can be intersected with a bucket by binary search (see
	// precursorWindow / searchScratch).
	offsets []uint32
	ids     []uint32

	numBuckets int
	buildPeak  int // peak transient bytes of construction; see BuildPeakBytes

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

// NumPeptides returns the highest local peptide id any row carries, plus
// one. It does not count distinct peptides: on a decoded index, ids with
// no row below the highest still count. It is the length a local-to-
// global peptide mapping must cover, which is what the engine checks a
// store shard against when it opens a session.
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

// Row returns row metadata by row id, the row's place in precursor order.
func (ix *Index) Row(id uint32) Row { return ix.rows[id] }

// stagedRow is one enumerated row with its in-range ions' bucket ids (a
// window of its pass-1 worker's flat buffer), held until pass 2 places it.
type stagedRow struct {
	row     Row
	buckets []uint32
}

// stageChunk is how many bucket ids one pass-1 staging chunk holds.
const stageChunk = 1 << 16

// enumerate runs pass 1 over peptides[lo:hi]: variant expansion, ion
// generation and scan-range filtering. It returns the rows in enumeration
// order — peptide, then variant — and the highest bucket any ion fell in
// (-1 for none). Ion order within a row is irrelevant to pass 2, so the
// generator's unsorted output is bucketed as it comes, through an ion
// buffer reused for every variant. Bucket ids are staged in fixed chunks:
// a row that does not fit starts a new one, so no staged id is ever
// copied again.
func enumerate(peptides []string, lo, hi int, params Params) (rows []stagedRow, maxBucket int, err error) {
	bucketer := mass.NewBucketer(params.Resolution)
	capB := params.capBucket()
	kinds := params.series()
	maxBucket = -1
	var (
		frag      spectrum.Fragmenter
		ions      []float64
		precursor float64
		chunk     []uint32
	)
	for pi := lo; pi < hi; pi++ {
		seq := peptides[pi]
		variants, err := params.Mods.Variants(seq)
		if err != nil {
			return nil, 0, fmt.Errorf("slm: peptide %d: %w", pi, err)
		}
		if err := frag.Reset(seq); err != nil {
			return nil, 0, fmt.Errorf("slm: peptide %d (%q): %w", pi, seq, err)
		}
		for _, v := range variants {
			ions, precursor, err = frag.AppendIons(ions[:0], v, params.Mods.Mods, kinds)
			if err != nil {
				return nil, 0, fmt.Errorf("slm: peptide %d (%q): %w", pi, seq, err)
			}
			if cap(chunk)-len(chunk) < len(ions) {
				chunk = make([]uint32, 0, max(stageChunk, len(ions)))
			}
			first := len(chunk)
			for _, ion := range ions {
				// Keep only ions inside the instrument scan range.
				if b := bucketer.Bucket(ion); b <= capB {
					chunk = append(chunk, uint32(b))
					maxBucket = max(maxBucket, b)
				}
			}
			var flags uint16
			if v.IsModified() {
				flags |= rowFlagModified
			}
			rows = append(rows, stagedRow{
				row: Row{
					Peptide:   uint32(pi),
					Precursor: precursor,
					NumIons:   uint16(len(chunk) - first),
					Flags:     flags,
				},
				buckets: chunk[first:len(chunk):len(chunk)],
			})
		}
	}
	return rows, maxBucket, nil
}

// split runs fn(w, lo, hi) for w in [0, parts) on one goroutine each,
// part w covering [n*w/parts, n*(w+1)/parts), and waits for all of them.
func split(n, parts int, fn func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < parts; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, n*w/parts, n*(w+1)/parts)
		}()
	}
	wg.Wait()
}

// minRangeRows is the fewest sorted positions pass 2 gives one worker: a
// worker's bucket counts cost 4 B per bucket whatever its range, so a
// worker count near the row count would spend more on counts than on
// postings.
const minRangeRows = 1024

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
// goroutines (0 or negative means one per available core). Pass 1 splits
// the peptides into contiguous shards and stages every row with its ions'
// bucket ids; one sort puts the rows in precursor order; pass 2 splits
// the sorted positions into contiguous ranges, counts each range's
// postings per bucket and then writes rows and postings at prefix-summed
// cursors. Every bucket's list comes out ascending, and the output does
// not depend on the worker count.
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

	// Pass 1 (parallel): enumerate rows, one contiguous peptide shard per
	// worker.
	shards := make([][]stagedRow, workers)
	maxBuckets := make([]int, workers)
	errs := make([]error, workers)
	split(len(peptides), workers, func(w, lo, hi int) {
		shards[w], maxBuckets[w], errs[w] = enumerate(peptides, lo, hi, params)
	})
	// Shards cover ascending peptide ranges and each stops at its first
	// error, so the lowest failing shard holds the globally first error —
	// the same one the serial build would report.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// A row's build id is its place in staged: enumeration order.
	staged := slices.Concat(shards...)
	totalIons := 0
	for _, st := range staged {
		totalIons += len(st.buckets)
	}

	// The one sort: perm[s] is the build id of the s-th lightest row,
	// ties in enumeration order.
	perm := make([]uint32, len(staged))
	for i := range perm {
		perm[i] = uint32(i)
	}
	slices.SortFunc(perm, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(staged[a].row.Precursor, staged[b].row.Precursor), cmp.Compare(a, b))
	})

	ix := &Index{params: params, numBuckets: max(slices.Max(maxBuckets), 0) + 1}
	ix.rows = make([]Row, len(staged))
	ix.offsets = make([]uint32, ix.numBuckets+1)
	ix.ids = make([]uint32, totalIons)

	// Pass 2a (parallel): each worker counts the postings of a contiguous
	// range of sorted positions per bucket.
	ranges := min(workers, max(1, len(staged)/minRangeRows))
	counts := make([][]uint32, ranges)
	split(len(staged), ranges, func(w, lo, hi int) {
		c := make([]uint32, ix.numBuckets)
		for _, id := range perm[lo:hi] {
			for _, b := range staged[id].buckets {
				c[b]++
			}
		}
		counts[w] = c
	})
	// Prefix over (bucket, range): offsets, and each range's cursors — its
	// postings in bucket b go after every lighter range's.
	sum := uint32(0)
	for b := range ix.numBuckets {
		ix.offsets[b] = sum
		for _, c := range counts {
			c[b], sum = sum, sum+c[b]
		}
	}
	ix.offsets[ix.numBuckets] = sum

	// Pass 2b (parallel): each range writes its rows and postings. It
	// walks its positions in ascending order, so every bucket's list comes
	// out ascending without being sorted.
	split(len(staged), ranges, func(w, lo, hi int) {
		cursor := counts[w]
		for s := lo; s < hi; s++ {
			st := &staged[perm[s]]
			ix.rows[s] = st.row
			for _, b := range st.buckets {
				ix.ids[cursor[b]] = uint32(s)
				cursor[b]++
			}
		}
	})

	ix.buildPeak = ix.MemoryBytes() + 4*totalIons + int(unsafe.Sizeof(stagedRow{}))*len(staged) + 4*len(perm)
	return ix, nil
}

// MemoryBytes returns the resident size of the index structures in bytes:
// packed 16-byte rows, offsets (4 per bucket) and ion postings (4 each).
// This is the quantity reported by the Fig. 5 experiment. For a mapped
// index (OpenIndexMapped) it is the mapped footprint: the bytes are page-
// cache backed and shared across co-located processes.
func (ix *Index) MemoryBytes() int {
	return rowMemBytes*len(ix.rows) + 4*len(ix.offsets) + 4*len(ix.ids)
}

// BuildPeakBytes returns the peak transient memory of the construction
// that made the index, term by term: the finished index (MemoryBytes),
// 4 B per staged ion bucket id, one staging record (a Row and its bucket
// window, 40 B on 64-bit hosts) per row, and 4 B per row of the sort
// permutation — all alive together while pass 2 writes. Pass 2's per-worker
// bucket counts (4 B per bucket per worker) and the unused tails of pass
// 1's staging chunks (under one chunk per worker) are left out so the
// figure does not depend on the worker count. A decoded or mapped index
// reports its MemoryBytes.
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
