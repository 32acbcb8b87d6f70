// Package slm implements a shared-peak fragment-ion index in the style of
// SLM-Transform (Haseeb et al., 2019), the substrate search engine the LBE
// layer distributes.
//
// The index discretizes every theoretical fragment ion of every indexed
// peptide variant into mass buckets of width Resolution and stores, per
// bucket, the list of spectrum rows containing such an ion (a CSR layout:
// one offsets array over buckets, one flat row-id array), cut into bands
// of at most 65 536 rows in precursor order so a posting is a 2-byte
// band-local row id (the paper's Fig. 1 internal data partitioning).
// Querying walks, for each experimental peak, the bucket window covering
// the fragment-mass tolerance, accumulates shared-peak counts on a
// scorecard, filters rows by the shared-peak threshold and the precursor
// window, and scores the survivors.
package slm

import (
	"fmt"
	"math"
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

	// Banded CSR ion index. Rows are cut into bands of bandRows rows (the
	// last band may be shorter); band k holds rows [k·bandRows,
	// (k+1)·bandRows). For band k and bucket b, with off =
	// offsets[k·(numBuckets+1):], the band's rows with an ion in b are
	// ids[off[b]:off[b+1]] as band-local ids (row − k·bandRows),
	// ascending — so a narrow precursor window can be intersected with a
	// bucket by binary search (see precursorWindow / searchScratch).
	// Bands follow each other in ids: band k ends where band k+1 starts.
	offsets []uint32
	ids     []uint16

	numBuckets int
	bandRows   int
	buildPeak  int // peak transient bytes of construction; see BuildPeakBytes

	// image is the index's SLMX file: rows, offsets and ids are views of
	// its sections, whether a build wrote it, DecodeIndex was handed it
	// or mapping maps it. WriteTo writes it.
	image []byte

	// mapping is non-nil when image is a memory-mapped store file (see
	// OpenIndexMapped); Close releases it.
	mapping *mmapio.Mapping
	closed  bool // set by Close: the views are released

	// cum is the cross-band prefix row of a bounded-tolerance index:
	// cum[b] is the number of postings in buckets below b, summed over
	// every band, so the postings a span [lo, hi) reaches across the
	// whole index are cum[hi] − cum[lo] (see searchScratch's Pruned).
	// It lives on the heap beside the image, 4 bytes per bucket; set by
	// build and by the content check of every open (verify), nil on open
	// tolerance, whose searches prune nothing.
	cum []uint32

	// view is the row-major transpose of the postings, published once by
	// BuildRowView; nil until then, and always on open tolerance.
	view atomic.Pointer[rowView]
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
			if n := len(chunk) - first; n > math.MaxUint16 {
				return nil, 0, fmt.Errorf("slm: peptide %d (%q): %d fragment ions in range, a row holds at most %d", pi, seq, n, math.MaxUint16)
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

// evenCuts returns the parts+1 ascending bounds that split [0, n) into
// parts near-equal ranges, range w being [n*w/parts, n*(w+1)/parts).
func evenCuts(n, parts int) []int {
	cuts := make([]int, parts+1)
	for w := range cuts {
		cuts[w] = n * w / parts
	}
	return cuts
}

// split runs fn(w, cuts[w], cuts[w+1]) for every range of cuts on one
// goroutine each, and waits for all of them.
func split(cuts []int, fn func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w+1 < len(cuts); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, cuts[w], cuts[w+1])
		}()
	}
	wg.Wait()
}

// minRangeRows is the fewest sorted positions pass 2 gives one worker: a
// worker's bucket counts cost 4 B per bucket whatever its range, so a
// worker count near the row count would spend more on counts than on
// postings.
const minRangeRows = 1024

// maxBandRows is the most rows one band may hold: a band-local row id
// is a uint16.
const maxBandRows = 1 << 16

// bandRows is the format's band size for an index of rows rows: the
// fewest bands of at most maxBandRows rows, as equal as ceil makes them
// (ceil(rows / ceil(rows/65 536))), so a shard just over a multiple of
// 65 536 rows gets no sliver band. An empty index has bands of 1 row.
func bandRows(rows int) int {
	if rows == 0 {
		return 1
	}
	bands := (rows + maxBandRows - 1) / maxBandRows
	return (rows + bands - 1) / bands
}

// numBands returns the number of row bands.
func (ix *Index) numBands() int { return (len(ix.rows) + ix.bandRows - 1) / ix.bandRows }

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
// bucket ids; one stable radix sort of build ids by precursor key puts
// the rows in precursor order; pass 2 splits the sorted positions into
// contiguous ranges, cut again at band edges, counts each piece's
// postings per bucket and then writes rows and band-local postings at
// cursors prefix-summed over (band, bucket, piece), straight into the
// index's SLMX image, whose checksums are sealed once at the end. Every
// list comes out ascending, and the output does not depend on the worker
// count.
func BuildWorkers(peptides []string, params Params, workers int) (*Index, error) {
	return build(peptides, params, workers, bandRows)
}

// build is BuildWorkers with the band size given as a rule of the row
// count: the format's bandRows for every index the package builds, a
// few rows in tests that need band edges inside a small index.
func build(peptides []string, params Params, workers int, band func(rows int) int) (*Index, error) {
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
	split(evenCuts(len(peptides), workers), func(w, lo, hi int) {
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
	rowsPerBand := band(len(staged))
	if rowsPerBand < 1 || rowsPerBand > maxBandRows {
		return nil, fmt.Errorf("slm: band of %d rows outside [1, %d]", rowsPerBand, maxBandRows)
	}

	// The one sort: perm[s] is the build id of the s-th lightest row,
	// ties in enumeration order.
	keys := make([]uint64, len(staged))
	for i := range staged {
		keys[i] = precursorKey(staged[i].row.Precursor)
	}
	perm := radixOrder(keys)

	// Pass 2 writes straight into the index's image, through the views
	// every open takes of one.
	numBuckets := max(slices.Max(maxBuckets), 0) + 1
	nb1 := numBuckets + 1
	bands := (len(staged) + rowsPerBand - 1) / rowsPerBand
	lens := [sectionTableEntries]int64{int64(len(staged)), int64(bands * nb1), int64(totalIons)}
	if err := checkEncodable(params, numBuckets, lens); err != nil {
		return nil, err
	}
	image, h := newImage(params, numBuckets, rowsPerBand, lens)
	ix, err := indexFromImage(h, image)
	if err != nil {
		return nil, err
	}

	// Pass 2 works on pieces: the workers' contiguous ranges of sorted
	// positions, cut again at band edges so each piece lies in one band.
	ranges := evenCuts(len(staged), min(workers, max(1, len(staged)/minRangeRows)))
	cuts := slices.Clone(ranges)
	for edge := rowsPerBand; edge < len(staged); edge += rowsPerBand {
		cuts = append(cuts, edge)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	// eachPiece runs fn over the pieces of every worker range, one
	// goroutine per range.
	eachPiece := func(fn func(p, lo, hi int)) {
		split(ranges, func(_, lo, hi int) {
			p, _ := slices.BinarySearch(cuts, lo)
			for ; p+1 < len(cuts) && cuts[p] < hi; p++ {
				fn(p, cuts[p], cuts[p+1])
			}
		})
	}

	// Pass 2a (parallel): count each piece's postings per bucket.
	counts := make([][]uint32, len(cuts)-1)
	eachPiece(func(p, lo, hi int) {
		c := make([]uint32, ix.numBuckets)
		for _, id := range perm[lo:hi] {
			for _, b := range staged[id].buckets {
				c[b]++
			}
		}
		counts[p] = c
	})
	// Prefix over (band, bucket, piece): offsets, and each piece's cursors
	// — its postings in a band's bucket go after every lighter piece's.
	sum, p := uint32(0), 0
	for k := range ix.numBands() {
		first := p
		for p+1 < len(cuts) && cuts[p] < (k+1)*rowsPerBand {
			p++
		}
		off := ix.offsets[k*nb1 : (k+1)*nb1]
		for b := range ix.numBuckets {
			off[b] = sum
			for _, c := range counts[first:p] {
				c[b], sum = sum, sum+c[b]
			}
		}
		off[ix.numBuckets] = sum
	}

	// Pass 2b (parallel): each piece writes its rows and postings. It
	// walks its positions in ascending order, so every list comes out
	// ascending without being sorted.
	eachPiece(func(p, lo, hi int) {
		cursor, base := counts[p], lo/rowsPerBand*rowsPerBand
		for s := lo; s < hi; s++ {
			st := &staged[perm[s]]
			ix.rows[s] = st.row
			for _, b := range st.buckets {
				ix.ids[cursor[b]] = uint16(s - base)
				cursor[b]++
			}
		}
	})

	seal(h, image)
	ix.cum = ix.prefixRow()
	ix.buildPeak = ix.MemoryBytes() + 4*totalIons + int(unsafe.Sizeof(stagedRow{}))*len(staged) + radixBytesPerRow*len(perm)
	return ix, nil
}

// prefixRow sums the bands' offsets rows into the index's cross-band
// prefix row (see Index.cum), one pass over bands × buckets; nil for an
// open tolerance. The offsets must have passed validateShape: they
// ascend, so no band's term wraps.
func (ix *Index) prefixRow() []uint32 {
	if ix.params.PrecursorTol.IsOpen() {
		return nil
	}
	nb1 := ix.numBuckets + 1
	cum := make([]uint32, nb1)
	for k := range ix.numBands() {
		off := ix.offsets[k*nb1 : (k+1)*nb1]
		for b, o := range off {
			cum[b] += o - off[0]
		}
	}
	return cum
}

// precursorKey maps a precursor mass to a uint64 whose unsigned order is
// the mass's order: the sign bit of a positive value is flipped, every
// bit of a negative one. For finite, non-zero values the keys compare as
// cmp.Compare compares the floats; a precursor is a positive peptide mass.
func precursorKey(m float64) uint64 {
	b := math.Float64bits(m)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixBytesPerRow is radixOrder's footprint per key: the keys and their
// scratch copy (8 B each), the permutation and its scratch copy (4 B
// each).
const radixBytesPerRow = 8 + 8 + 4 + 4

// radixOrder returns the permutation that sorts keys ascending, ties in
// index order: a stable LSD radix sort, one byte per pass, that skips
// every byte position all keys share. keys serves as scratch and is
// overwritten.
func radixOrder(keys []uint64) []uint32 {
	n := len(keys)
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	if n < 2 {
		return perm
	}
	var counts [8][256]int
	for _, k := range keys {
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	keys2, perm2 := make([]uint64, n), make([]uint32, n)
	for d := range counts {
		c := &counts[d]
		if c[byte(keys[0]>>(8*d))] == n {
			continue // every key has this byte: the pass would move nothing
		}
		sum := 0
		for b, k := range c {
			c[b], sum = sum, sum+k
		}
		for i, k := range keys {
			b := byte(k >> (8 * d))
			keys2[c[b]], perm2[c[b]] = k, perm[i]
			c[b]++
		}
		keys, keys2 = keys2, keys
		perm, perm2 = perm2, perm
	}
	return perm
}

// MemoryBytes returns the resident size of the index structures in bytes:
// packed 16-byte rows, offsets (4 per bucket per band) and ion postings
// (2 each). This is the quantity reported by the Fig. 5 experiment. For a
// mapped index (OpenIndexMapped) it is the mapped footprint: the bytes are
// page-cache backed and shared across co-located processes.
func (ix *Index) MemoryBytes() int {
	return rowMemBytes*len(ix.rows) + 4*len(ix.offsets) + 2*len(ix.ids)
}

// BuildPeakBytes returns the peak transient memory of the construction that
// made the index, term by term: the finished index (MemoryBytes), 4 B per
// staged ion bucket id, one staging record (a Row and its bucket window, 40
// B on 64-bit hosts) per row, and 24 B per row of the radix sort — the
// permutation pass 2 reads (4 B) beside its scratch copy (4 B), the
// precursor keys and their scratch copy (8 B each), garbage no collection
// need have reclaimed yet — all alive together while pass 2 writes. Pass
// 2's per-piece bucket counts (4 B per bucket per piece) and the unused
// tails of pass 1's staging chunks (under one chunk per worker) are left
// out so the figure does not depend on the worker count. A decoded or
// mapped index reports its MemoryBytes.
func (ix *Index) BuildPeakBytes() int { return ix.buildPeak }
