package slm

import (
	"cmp"
	"math"
	"slices"

	"lbe/internal/spectrum"
)

// Match is one candidate peptide-to-spectrum match (cPSM) produced by a
// query against the index.
type Match struct {
	Row       uint32  // index row id (peptide variant): its place in precursor order
	Peptide   uint32  // local (virtual) peptide index
	Shared    uint16  // shared peak count
	Score     float64 // hyperscore-style match score; higher is better
	Precursor float64 // row's neutral precursor mass
}

// Work accounts for the computation a query performed; the engine
// aggregates it per rank to measure load (im)balance in deterministic
// units rather than noisy wall-clock.
type Work struct {
	IonHits    int64 // postings visited during shared-peak counting
	Pruned     int64 // postings skipped by the precursor-windowed scan
	Candidates int64 // rows that reached the shared-peak threshold
	Scored     int64 // candidates surviving the precursor filter and scored
}

// Add accumulates w2 into w.
func (w *Work) Add(w2 Work) {
	w.IonHits += w2.IonHits
	w.Pruned += w2.Pruned
	w.Candidates += w2.Candidates
	w.Scored += w2.Scored
}

// Scratch holds reusable per-searcher buffers so concurrent searchers do
// not contend. A zero Scratch is ready for use; one Scratch must not be
// shared between goroutines.
//
// Phase 1 keeps one word per row in acc: the postings that hit the row
// (its shared-peak count) in bits 63..32, the sum of their quantized peak
// intensities in bits 31..0. A posting is one
// load-add-store of 1<<32|intensity; zero means untouched by this query.
// A word is exact while its row collects at most 65 536 postings from one
// query (65 536 × 65 535 < 2³²: the sum cannot carry into the count). A
// row collects one posting per (peak, own ion in that peak's fragment
// window) pair, so searchScratch admits at most maxQueryPeaks peaks — the
// bound at one ion per window, which real tolerances give; past it only
// that row's own word can be wrong. Match.Shared saturates at
// math.MaxUint16 rather than truncating the count.
type Scratch struct {
	acc     []uint64  // phase-1 accumulator, all zero between searches
	touched []uint32  // len(acc)+1 slots: first-touched rows of the current query
	qint    []uint16  // per-peak quantized intensities for the current query
	matches []Match   // per-query accumulator, reused across searches
	cut     []float64 // cutTopK's k best scores
}

// maxQueryPeaks is the most peaks one query may bring to phase 1; see the
// accumulator bounds on Scratch.
const maxQueryPeaks = 1 << 16

// ensure sizes the accumulator and its touched list for an index with
// rows rows; a warm scratch (already at capacity) does not allocate.
//
//lbe:hotpath
func (s *Scratch) ensure(rows int) {
	if len(s.acc) < rows {
		// Round capacity up to the next power of two: a work-stealing
		// pool hands one Scratch shards of alternating sizes, and
		// growing at exact rows would reallocate on every steal.
		n := 64
		for n < rows {
			n <<= 1
		}
		s.acc = make([]uint64, n)
		// One slot more than rows: accumulate stores every posting's row
		// at touched[n] and only then decides whether to keep it.
		s.touched = make([]uint32, n+1)
	}
}

// intensityQuantLevels is the quantization range of peak intensities:
// each query's peaks are rescaled so its strongest peak is this value.
const intensityQuantLevels = 65535

// quantScales returns the quantize/dequantize factor pair for a query
// whose strongest peak has maxIntensity. A non-positive maximum (empty
// or all-zero query) yields zero scales, quantizing everything to 0.
func quantScales(maxIntensity float64) (scale, invScale float64) {
	if maxIntensity <= 0 {
		return 0, 0
	}
	return intensityQuantLevels / maxIntensity, maxIntensity / intensityQuantLevels
}

// quantizeIntensity maps one peak intensity to its u16 level: round half
// up, clamped so float rounding at the maximum cannot wrap.
func quantizeIntensity(v, scale float64) uint16 {
	q := v*scale + 0.5
	if q >= intensityQuantLevels {
		return intensityQuantLevels
	}
	if q < 0 {
		return 0
	}
	return uint16(q)
}

// quantize fills s.qint with the query's peak intensities quantized to
// u16 levels and returns the dequantization factor. Phase 1 then sums
// integers in the low half of the row's accumulator word (see Scratch),
// and the sum is converted back to intensity units once per scored
// candidate.
//
//lbe:hotpath
func (s *Scratch) quantize(peaks []spectrum.Peak) float64 {
	if cap(s.qint) < len(peaks) {
		n := 64
		for n < len(peaks) {
			n <<= 1
		}
		s.qint = make([]uint16, n)
	}
	s.qint = s.qint[:len(peaks)]
	maxI := 0.0
	for _, p := range peaks {
		if p.Intensity > maxI {
			maxI = p.Intensity
		}
	}
	scale, invScale := quantScales(maxI)
	for i, p := range peaks {
		s.qint[i] = quantizeIntensity(p.Intensity, scale)
	}
	return invScale
}

// Search queries one preprocessed experimental spectrum against the index
// and returns the candidate matches (unordered unless topK > 0, in which
// case the best topK by score are returned in descending score order).
// The returned slice is owned by the caller and survives later searches
// with the same Scratch.
//
// The query's peaks must be sorted by m/z (see spectrum.Preprocess).
//
// On a mapped index the first Search triggers the deferred content
// validation (see Verify) and panics if the file is corrupt; callers
// that need an error instead must call Verify themselves first.
//
//lbe:hotpath
func (ix *Index) Search(q spectrum.Experimental, topK int, scratch *Scratch) ([]Match, Work) {
	matches, work := ix.SearchCut(q, topK, scratch)
	if topK > 0 && len(matches) > 0 {
		sortMatches(matches)
		if len(matches) > topK {
			matches = matches[:topK]
		}
	}
	return matches, work
}

// SearchCut is Search for a caller that merges several indexes' answers
// under an ordering of its own (the scheduler's workers, whose cells the
// engine merges by score, then global peptide): rather than sort and
// truncate, it returns, unordered, every match scoring at least the k-th
// best score of this (index, query) cell. Ties at the cut are all kept,
// so a dropped match has k strictly better ones in this index alone and
// cannot be among any merged best k, whatever breaks ties there. k <= 0
// keeps everything.
//
//lbe:hotpath
func (ix *Index) SearchCut(q spectrum.Experimental, k int, scratch *Scratch) ([]Match, Work) {
	if err := ix.Verify(); err != nil {
		panic(err)
	}
	if scratch == nil {
		scratch = &Scratch{}
	}
	matches, work := ix.searchScratch(q, scratch)
	return copyMatches(scratch.cutTopK(matches, k)), work
}

// cutTopK keeps, in place and in their phase-2 order, the matches scoring
// at least the k-th best score in ms. It tracks the k best scores seen in
// a descending insertion-sorted array: phase-2 order is unrelated to
// score, so past the first k matches almost every score fails the one
// comparison against the current k-th best.
//
//lbe:hotpath
func (s *Scratch) cutTopK(ms []Match, k int) []Match {
	if k <= 0 || len(ms) <= k {
		return ms
	}
	if cap(s.cut) < k {
		s.cut = make([]float64, k)
	}
	best := s.cut[:k]
	for i := range best {
		best[i] = math.Inf(-1)
	}
	for _, m := range ms {
		if m.Score <= best[k-1] {
			continue
		}
		i := k - 1
		for ; i > 0 && best[i-1] < m.Score; i-- {
			best[i] = best[i-1]
		}
		best[i] = m.Score
	}
	n := 0
	for _, m := range ms {
		if m.Score >= best[k-1] {
			ms[n] = m
			n++
		}
	}
	return ms[:n]
}

// precursorWindow resolves the query's precursor tolerance to the
// contiguous range [rlo, rhi) of row ids it admits, via two binary
// searches over the rows' ascending precursors: [0, rows) for an open
// tolerance, an empty index, or a window that covers every row.
// The range is exactly the set PrecursorTol.Contains accepts (both are
// inclusive on both ends), so intersecting phase 1 with it never changes
// which rows can score.
//
//lbe:hotpath
func (ix *Index) precursorWindow(qmass float64) (rlo, rhi uint32) {
	rows := ix.rows
	if len(rows) == 0 || ix.params.PrecursorTol.IsOpen() {
		return 0, uint32(len(rows))
	}
	wlo, whi := ix.params.PrecursorTol.Window(qmass)
	// First row with precursor >= wlo.
	lo, hi := 0, len(rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rows[m].Precursor < wlo {
			lo = m + 1
		} else {
			hi = m
		}
	}
	first := lo
	// First row with precursor > whi.
	hi = len(rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rows[m].Precursor <= whi {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return uint32(first), uint32(lo)
}

// postingsLowerBound returns the first position in ids[lo:hi) holding a
// value >= v. Posting counts are capped at 1<<30, so lo+hi cannot
// overflow.
//
//lbe:hotpath
func postingsLowerBound(ids []uint32, lo, hi, v uint32) uint32 {
	for lo < hi {
		m := (lo + hi) >> 1
		if ids[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// accumulate is phase 1's one inner loop: it adds add (1<<32 | quantized
// intensity) to the word of every posting's row and appends each row to
// touched[:n] the first time the query reaches it, returning the new n.
// First touch is a coin flip on an open search, so it is decided without
// a branch: the row is always stored at touched[n], and n advances only
// if the word was zero ((a|-a)>>63 is a != 0).
//
// It stays out of line on purpose: inlined into searchScratch the loop
// spills its counter and the loaded word to the stack on every posting
// (batch-open 1 360 qps inlined, 1 850 out of line, same machine).
//
//lbe:hotpath
//go:noinline
func accumulate(acc []uint64, touched []uint32, n int, postings []uint32, add uint64) int {
	for _, rid := range postings {
		a := acc[rid]
		touched[n] = rid
		n += int(1 - (a|-a)>>63)
		acc[rid] = a + add
	}
	return n
}

// searchScratch runs the two search phases and returns matches backed by
// scratch.matches: valid only until the next search with this Scratch.
//
// Phase 1 narrows each bucket's ascending posting list to the precursor
// window's row range, skipping postings that could never survive phase
// 2's precursor filter: one binary search finds the first posting at or
// after the window, and a forward walk finds its end. A narrow window
// holds a few hundredths of a posting per bucket, so the walk reads only
// postings accumulate is about to touch, where a second binary search
// paid its full depth. When the window admits every row there is nothing
// to narrow, and the fragment window's buckets are walked as one
// flattened span of postings instead: on open search
// the per-bucket loop lost every one of 4 alternating BenchmarkSearchOpen
// pairs, 4.00–4.78 ns/posting against the flattened span's 3.57–4.31
// (2-vCPU Xeon VM). Both paths hand accumulate the same postings in the
// same order.
//
//lbe:hotpath
func (ix *Index) searchScratch(q spectrum.Experimental, scratch *Scratch) ([]Match, Work) {
	peaks := q.Peaks
	if len(peaks) > maxQueryPeaks {
		peaks = peaks[:maxQueryPeaks]
	}
	scratch.ensure(len(ix.rows))
	invScale := scratch.quantize(peaks)
	var work Work
	qmass := q.PrecursorMass()

	// Phase 1: shared-peak counting over the CSR postings, accumulating
	// quantized intensities.
	acc, touched, n := scratch.acc, scratch.touched, 0
	if rlo, rhi := ix.precursorWindow(qmass); rlo == 0 && int(rhi) == len(ix.rows) {
		for pi, p := range peaks {
			blo, bhi := ix.bucketSpan(p.MZ)
			if blo > bhi {
				continue
			}
			lo, hi := ix.offsets[blo], ix.offsets[bhi+1]
			n = accumulate(acc, touched, n, ix.ids[lo:hi], 1<<32|uint64(scratch.qint[pi]))
			work.IonHits += int64(hi - lo)
		}
	} else {
		for pi, p := range peaks {
			add := 1<<32 | uint64(scratch.qint[pi])
			blo, bhi := ix.bucketSpan(p.MZ)
			for b := blo; b <= bhi; b++ {
				s, e := ix.offsets[b], ix.offsets[b+1]
				lo := postingsLowerBound(ix.ids, s, e, rlo)
				hi := lo
				for hi < e && ix.ids[hi] < rhi {
					hi++
				}
				n = accumulate(acc, touched, n, ix.ids[lo:hi], add)
				work.IonHits += int64(hi - lo)
				work.Pruned += int64(e-s) - int64(hi-lo)
			}
		}
	}

	// Phase 2: threshold + precursor filter + scoring, zeroing each touched
	// word on the way so the accumulator is clean for the next search.
	matches := scratch.matches[:0]
	minShared := uint64(ix.params.MinSharedPeaks)
	for _, rid := range touched[:n] {
		a := acc[rid]
		acc[rid] = 0
		c := a >> 32
		if c < minShared {
			continue
		}
		work.Candidates++
		row := ix.rows[rid]
		if !ix.params.PrecursorTol.Contains(qmass, row.Precursor) {
			continue
		}
		work.Scored++
		shared := uint16(min(c, math.MaxUint16))
		matches = append(matches, Match{
			Row:       rid,
			Peptide:   row.Peptide,
			Shared:    shared,
			Score:     hyperscore(shared, float64(uint32(a))*invScale, int(row.NumIons)),
			Precursor: row.Precursor,
		})
	}

	scratch.matches = matches[:0] // retain grown capacity for reuse
	return matches, work
}

// copyMatches returns a caller-owned copy of a scratch-backed slice so
// callers may retain results across searches. nil stays nil. The sized
// make here is the one allocation the warm search path is allowed.
//
//lbe:hotpath
func copyMatches(ms []Match) []Match {
	if len(ms) == 0 {
		return nil
	}
	out := make([]Match, len(ms))
	copy(out, ms)
	return out
}

// sortMatches orders by descending score, then ascending row id for
// determinism across runs and machines. Both fields together are a total
// order, so the unstable allocation-free sort is deterministic.
//
//lbe:hotpath
func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Row, b.Row)
	})
}

// SearchAll queries a batch of spectra sequentially, accumulating work.
// Results are indexed like the input batch.
func (ix *Index) SearchAll(qs []spectrum.Experimental, topK int) ([][]Match, Work) {
	var scratch Scratch
	var total Work
	out := make([][]Match, len(qs))
	for i, q := range qs {
		m, w := ix.Search(q, topK, &scratch)
		out[i] = m
		total.Add(w)
	}
	return out, total
}
