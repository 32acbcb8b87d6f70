package slm

import (
	"cmp"
	"math"
	"slices"

	"lbe/internal/mass"
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
// intensities in bits 31..0. A posting is one load-add-store of
// 1<<32|intensity, and a row becomes a candidate at the posting that
// lifts its word to MinSharedPeaks<<32 or past it. A word is exact while
// its row collects at most 65 536 postings from one query
// (65 536 × 65 535 < 2³²: the sum cannot carry into the count). A row
// collects one posting per (peak, own ion in that peak's fragment
// window) pair, so Query.Prepare admits at most maxQueryPeaks peaks — the
// bound at one ion per window, which real tolerances give; past it only
// that row's own word can be wrong. Match.Shared saturates at
// math.MaxUint16 rather than truncating the count.
type Scratch struct {
	acc     []uint64   // phase-1 accumulator, all zero between searches
	cands   []uint32   // len(acc)+1 slots: the current query's candidate rows
	query   Query      // Search and SearchCut prepare their spectrum here
	spans   []peakSpan // the current query's spans clamped to the index's buckets
	matches []Match    // per-query accumulator, reused across searches
	cut     []float64  // cutTopK's k best scores

	// The row scan's buffers (see searchScratch): a bitset over the
	// buckets, set under the current query's peaks while it runs and all
	// zero between searches; a scanned band's candidates as (span, bucket,
	// row) keys; one candidate row's (span, bucket) hits.
	under []uint64
	keys  []uint64
	pairs []uint64
}

// peakSpan is one query peak as phase 1 walks it in every band: its
// fragment window's buckets [lo, hi) and the word each posting adds.
type peakSpan struct {
	lo, hi uint32
	add    uint64
}

// Query is one spectrum resolved under the two index parameters that
// decide its spans, Resolution and FragmentTol: each peak's bucket span
// and quantized word, the precursor mass, and whether the spans ascend.
// An LBE session searches every query against every shard, and the
// shards share those parameters, so it prepares a query once and
// searches it p times; only the clamp to an index's bucket count, which
// each shard's data decides, is left to the search. Prepare fills one,
// reusing its buffers; SearchQuery searches it.
type Query struct {
	spans     []peakSpan // peaks that can reach a bucket, in peak order; hi not clamped to any index
	mass      float64    // neutral precursor mass
	invScale  float64    // dequantizes the intensity half of a word
	ascending bool       // spans ascend at both ends, so the row scan may binary search them

	resolution  float64        // the parameters the spans were resolved under
	fragmentTol mass.Tolerance // (see SearchQuery)
}

// maxQueryPeaks is the most peaks one query may bring to phase 1; see the
// accumulator bounds on Scratch.
const maxQueryPeaks = 1 << 16

// ensure sizes the accumulator and its candidate list for an index with
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
		// at cands[n] and only then decides whether to keep it.
		s.cands = make([]uint32, n+1)
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

// Prepare resolves the preprocessed spectrum e (peaks sorted by m/z, see
// spectrum.Preprocess) under params into q, replacing what q held: the
// first maxQueryPeaks peaks quantized to u16 levels of the strongest —
// phase 1 sums integers in the low half of a row's word (see Scratch),
// converted back to intensity once per scored candidate — each with its
// fragment window's bucket span. A peak whose span is empty, or starts
// past every bucket an index can hold, is dropped. A warm Query (one
// that has held as many spans before) does not allocate.
//
//lbe:hotpath
func (q *Query) Prepare(e spectrum.Experimental, params Params) {
	peaks := e.Peaks
	if len(peaks) > maxQueryPeaks {
		peaks = peaks[:maxQueryPeaks]
	}
	maxI := 0.0
	for _, p := range peaks {
		if p.Intensity > maxI {
			maxI = p.Intensity
		}
	}
	scale, invScale := quantScales(maxI)
	bucketer := mass.NewBucketer(params.Resolution)
	spans, ascending := q.spans[:0], true
	for _, p := range peaks {
		blo, bhi := bucketer.Range(p.MZ, params.FragmentTol)
		blo, bhi = max(blo, 0), min(bhi, maxBucketCount-1)
		if blo > bhi {
			continue
		}
		sp := peakSpan{lo: uint32(blo), hi: uint32(bhi + 1), add: 1<<32 | uint64(quantizeIntensity(p.Intensity, scale))}
		if len(spans) > 0 && (sp.lo < spans[len(spans)-1].lo || sp.hi < spans[len(spans)-1].hi) {
			ascending = false
		}
		spans = append(spans, sp)
	}
	*q = Query{
		spans:       spans,
		mass:        e.PrecursorMass(),
		invScale:    invScale,
		ascending:   ascending,
		resolution:  params.Resolution,
		fragmentTol: params.FragmentTol,
	}
}

// Search queries one preprocessed experimental spectrum against the index
// and returns the candidate matches (unordered unless topK > 0, in which
// case the best topK by score are returned in descending score order).
// The returned slice is owned by the caller and survives later searches
// with the same Scratch.
//
// The query's peaks must be sorted by m/z (see spectrum.Preprocess).
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
// under an ordering of its own: rather than sort and truncate, it
// returns, unordered, every match scoring at least the k-th best score
// of this (index, query) cell. Ties at the cut are all kept, so a
// dropped match has k strictly better ones in this index alone and
// cannot be among any merged best k, whatever breaks ties there. k <= 0
// keeps everything. It prepares q in the scratch and runs SearchQuery.
//
//lbe:hotpath
func (ix *Index) SearchCut(q spectrum.Experimental, k int, scratch *Scratch) ([]Match, Work) {
	if scratch == nil {
		scratch = &Scratch{}
	}
	scratch.query.Prepare(q, ix.params)
	return ix.SearchQuery(&scratch.query, k, scratch)
}

// SearchQuery is the kernel's one entry: SearchCut's answer and Work for
// a query prepared under this index's Resolution and FragmentTol, as the
// scheduler's workers search each prepared query against every shard
// (the engine merges their cells by score, then global peptide). It
// panics on a query prepared under other values of those two, whose spans
// would name other buckets, and on an index that Close has released.
//
//lbe:hotpath
func (ix *Index) SearchQuery(q *Query, k int, scratch *Scratch) ([]Match, Work) {
	if ix.closed {
		panic(errClosed)
	}
	if q.resolution != ix.params.Resolution || q.fragmentTol != ix.params.FragmentTol {
		panic("slm: query prepared under another Resolution or FragmentTol")
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
func postingsLowerBound(ids []uint16, lo, hi, v uint32) uint32 {
	for lo < hi {
		m := (lo + hi) >> 1
		if uint32(ids[m]) < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// accumulate is phase 1's one inner loop over one band: it adds add
// (1<<32 | quantized intensity) to the word of every posting's row in acc,
// the band's tile of the accumulator, and appends the row's band-local id
// to cands[:n] at the posting that lifts its word from below t
// (MinSharedPeaks<<32) to t or past it, returning the new n. A word only
// grows, so a row is appended once, when it becomes a candidate, even
// past the 65 536-posting exactness bound where the sum can carry into
// the count. The test has no branch: the row is always stored at
// cands[n], a slot that stays in cache, and n advances only if a-t and
// a+add-t differ in sign, which is exact while t and the word stay below
// 2⁶³ (under 2³¹ postings on one row). The caller adds the band's first
// row to the ids it appended: adding it here costs the loop a register,
// and it then spills on every posting (BenchmarkSearchOpen 4.30–4.79
// against 3.66–3.91 ns/posting, 3 alternating runs, same VM).
//
// It stays out of line on purpose: inlined into searchScratch the loop
// spills to the stack on every posting (batch-open, 6 alternating pairs
// on a 2-vCPU VM: 1 640 qps and 1.21 cpu ms/query out of line, 1 074 and
// 1.82 inlined).
//
//lbe:hotpath
//go:noinline
func accumulate(acc []uint64, cands []uint32, n int, postings []uint16, add, t uint64) int {
	for _, rid := range postings {
		d := acc[rid] - t
		e := d + add
		cands[n] = uint32(rid)
		n += int((d ^ e) >> 63)
		acc[rid] = e + t
	}
	return n
}

// nextHit returns the position of the first of buckets[i:] whose bit is
// set in under, or len(buckets): the row scan's inner loop, one load and
// one bit test per posting. It stays out of line for the reason
// accumulate does: inlined into searchScratch, the loop reloads its
// slices from the stack on every posting.
//
//lbe:hotpath
//go:noinline
func nextHit(buckets []uint32, under []uint64, i int) int {
	for ; i < len(buckets); i++ {
		if b := buckets[i]; under[b>>6]&(1<<(b&63)) != 0 {
			return i
		}
	}
	return len(buckets)
}

// scanPerProbe is how many postings the row scan reads in the time the
// per-bucket walk spends on one probed bucket: a binary search over the
// bucket's list in the band, then a forward walk. searchScratch scans a
// cut band's window slice when its postings are at most this many per
// probe. On BenchmarkSearchNarrow's index (2-vCPU VM, 3 alternating
// runs each) the scan alone and the walk alone cost about the same at a
// 3 Da window, a median of 22 slice postings per probe, and the walk is
// 1.3–1.6× faster at 4 and 5 Da; 16 leaves the scan to the slices where
// it clearly wins. BenchmarkSearchNarrow (0.5 Da, about 3 per probe)
// scans; BenchmarkSearchWide (20 Da, about 150) walks.
const scanPerProbe = 16

// searchScratch runs the two search phases and returns matches backed by
// scratch.matches: valid only until the next search with this Scratch.
//
// The query's spans arrive prepared (see Query); the search only clamps
// them to this index's buckets, dropping a span that starts past the
// last one.
//
// Phase 1 is one loop over the row bands the precursor window overlaps —
// a band wholly outside it holds no row the search may read, so it is
// not visited — each searched in one of three ways:
//   - a band wholly inside the window — every band on open search — is
//     walked peak by peak as one flattened span of postings per peak,
//     which beat the per-bucket loop on every one of 4 alternating
//     BenchmarkSearchOpen pairs, 3.57–4.31 ns/posting against 4.00–4.78
//     (2-vCPU Xeon VM);
//   - a band a window edge cuts is read only on the window's rows. Once
//     BuildRowView has published the row-major view, the window slice's
//     rows are scanned in row order: each of a row's buckets is tested
//     against a bitset of the buckets under the query's peaks, and a hit
//     adds every covering peak's word, as accumulate would. A 0.5 Da
//     window holds a few dozen rows, so this reads a thousand or so
//     sequential postings where the walk below pays one binary search
//     per probed bucket, several hundred of them. The choice is made per
//     cut band from counts known before either runs: the slice's
//     postings against scanPerProbe per probed bucket. A wide slice, or a
//     band of an index with no view yet, takes the per-bucket walk: one
//     binary search finds each bucket's first posting at or after the
//     window, and a forward walk finds its end. The row scan lists its
//     candidates by the (peak, bucket, row) of the posting that lifted
//     each to the threshold — the order the walk reaches them.
//
// A band's postings are counted peak by peak in list order whichever way
// it is read, so a windowed search lists its candidates in the order the
// open search lists those rows, the order they reach MinSharedPeaks.
// Pruned is the conservation identity, IonHits + Pruned = the open
// scan's IonHits: the postings under the spans, read off the index's
// cross-band prefix row in two loads per span, less IonHits. No band case
// counts it. An open-tolerance index reads every posting it reaches and
// has no prefix row, so its Pruned is 0.
//
// Phase 2 scores only that list, each word final by then, and one clear
// of the window's rows [rlo, rhi) — every row phase 1 can reach: the
// whole index on open search, a few dozen rows in a 0.5 Da window —
// leaves the accumulator all zero for the next search.
//
//lbe:hotpath
func (ix *Index) searchScratch(q *Query, scratch *Scratch) ([]Match, Work) {
	scratch.ensure(len(ix.rows))
	var work Work

	// The row scan finds the peaks covering a bucket by binary search, so
	// it needs their spans in ascending order at both ends, which sorted
	// peaks give; a query that breaks it walks every band. Clamping keeps
	// the order.
	view := ix.view.Load()
	if !q.ascending {
		view = nil
	}
	nb := uint32(ix.numBuckets)
	spans, probes := scratch.spans[:0], int64(0)
	for _, sp := range q.spans {
		if sp.lo < nb {
			sp.hi = min(sp.hi, nb)
			spans = append(spans, sp)
			probes += int64(sp.hi - sp.lo)
		}
	}
	scratch.spans = spans

	// Phase 1: shared-peak counting over the banded postings,
	// accumulating quantized intensities and listing the candidates in the
	// order they reach the threshold. Clamping it keeps t below 2⁶³ for
	// accumulate's sign test; only a row past 2³¹ − 1 postings, far beyond
	// its word's exactness bound, could tell the difference.
	acc, cands, n := scratch.acc, scratch.cands, 0
	t := min(uint64(ix.params.MinSharedPeaks), 1<<31-1) << 32
	rlo, rhi := ix.precursorWindow(q.mass)
	rows, band, nb1 := uint32(len(ix.rows)), uint32(ix.bandRows), ix.numBuckets+1
	under := []uint64(nil) // the bitset, once a band is scanned
	base := rhi            // an empty window visits no band
	if rlo < rhi {
		base = rlo - rlo%band
	}
	for ; base < rhi; base += band {
		k := int(base / band)
		end := min(base+band, rows)
		off := ix.offsets[k*nb1 : (k+1)*nb1]
		tile, first := acc[base:end], n
		switch {
		case rlo <= base && end <= rhi:
			for _, sp := range spans {
				lo, hi := off[sp.lo], off[sp.hi]
				n = accumulate(tile, cands, n, ix.ids[lo:hi], sp.add, t)
				work.IonHits += int64(hi - lo)
			}
		case view != nil && int64(view.start[min(rhi, end)]-view.start[max(rlo, base)]) <= scanPerProbe*probes:
			if under == nil {
				words := (ix.numBuckets + 63) >> 6
				if len(scratch.under) < words {
					scratch.under = make([]uint64, words)
				}
				under = scratch.under
				for _, sp := range spans {
					for b := sp.lo; b < sp.hi; {
						e := min(sp.hi, (b|63)+1)
						under[b>>6] |= ^uint64(0) >> (64 - (e - b)) << (b & 63)
						b = e
					}
				}
			}
			// One pass over the slice's postings, hit to hit: a row's word
			// is settled when the first hit past it arrives, or the end.
			lo, hi := max(rlo, base), min(rhi, end)
			postings := view.buckets[:view.start[hi]]
			hits, keys, pairs := int64(0), scratch.keys[:0], scratch.pairs[:0]
			r, a := lo, uint64(0)
			for p := nextHit(postings, under, int(view.start[lo])); ; p = nextHit(postings, under, p+1) {
				if uint32(p) >= view.start[r+1] {
					if a != 0 {
						acc[r], hits = a, hits+int64(len(pairs))
						if a >= t {
							// A candidate: replay its hits in the walk's
							// (peak, bucket) order to find the one that
							// lifted it to t.
							slices.Sort(pairs)
							w, lift := uint64(0), uint64(0)
							for _, hit := range pairs {
								if w += spans[hit>>32].add; w >= t {
									lift = hit
									break
								}
							}
							keys = append(keys, lift<<16|uint64(r-base))
						}
						a, pairs = 0, pairs[:0]
					}
					if p == len(postings) {
						break
					}
					for uint32(p) >= view.start[r+1] {
						r++
					}
				}
				// The peaks covering b: from the first whose span ends
				// past b, while they start at or before it.
				b := postings[p]
				i, j := 0, len(spans)
				for i < j {
					if m := int(uint(i+j) >> 1); spans[m].hi <= b {
						i = m + 1
					} else {
						j = m
					}
				}
				for ; i < len(spans) && spans[i].lo <= b; i++ {
					a += spans[i].add
					pairs = append(pairs, uint64(i)<<32|uint64(b))
				}
			}
			scratch.pairs = pairs
			slices.Sort(keys)
			for _, key := range keys {
				cands[n] = uint32(key & 0xffff)
				n++
			}
			scratch.keys = keys
			work.IonHits += hits
		default:
			wlo, whi := max(rlo, base)-base, min(rhi, end)-base
			for _, sp := range spans {
				for b := sp.lo; b < sp.hi; b++ {
					s, e := off[b], off[b+1]
					lo := postingsLowerBound(ix.ids, s, e, wlo)
					hi := lo
					for hi < e && uint32(ix.ids[hi]) < whi {
						hi++
					}
					n = accumulate(tile, cands, n, ix.ids[lo:hi], sp.add, t)
					work.IonHits += int64(hi - lo)
				}
			}
		}
		for i := first; i < n; i++ {
			cands[i] += base // band-local to row id
		}
	}
	if under != nil {
		for _, sp := range spans {
			clear(under[sp.lo>>6 : (sp.hi-1)>>6+1])
		}
	}
	if ix.cum != nil {
		reached := int64(0)
		for _, sp := range spans {
			reached += int64(ix.cum[sp.hi] - ix.cum[sp.lo])
		}
		work.Pruned = reached - work.IonHits
	}

	// Phase 2: precursor filter + scoring of the candidates, then the
	// window's clear.
	work.Candidates = int64(n)
	matches := scratch.matches[:0]
	for _, rid := range cands[:n] {
		a := acc[rid]
		row := ix.rows[rid]
		if !ix.params.PrecursorTol.Contains(q.mass, row.Precursor) {
			continue
		}
		work.Scored++
		shared := uint16(min(a>>32, math.MaxUint16))
		matches = append(matches, Match{
			Row:       rid,
			Peptide:   row.Peptide,
			Shared:    shared,
			Score:     hyperscore(shared, float64(uint32(a))*q.invScale, int(row.NumIons)),
			Precursor: row.Precursor,
		})
	}
	clear(acc[rlo:rhi])

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
