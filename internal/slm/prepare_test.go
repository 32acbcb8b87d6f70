package slm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// coveringSpans is the row scan's lookup before the prepared words, kept
// as the reference: the spans, ascending at both ends, that cover bucket
// b, found by binary search for the first whose span ends past b, then
// walked while they start at or before it. It returns their count (the
// hit's IonHits) and the sum of their words.
func coveringSpans(spans []peakSpan, b uint32) (hits int64, sum uint64) {
	i, j := 0, len(spans)
	for i < j {
		if m := int(uint(i+j) >> 1); spans[m].hi <= b {
			i = m + 1
		} else {
			j = m
		}
	}
	for ; i < len(spans) && spans[i].lo <= b; i++ {
		sum += spans[i].add
		hits++
	}
	return hits, sum
}

// walkedSpans is the row scan's lookup as searchScratch runs it: from the
// first span of b's word, while spans start at or before b, each that
// ends past it.
func walkedSpans(spans []peakSpan, first uint16, b uint32) (hits int64, sum uint64) {
	for i := int(first); i < len(spans) && spans[i].lo <= b; i++ {
		if spans[i].hi > b {
			sum += spans[i].add
			hits++
		}
	}
	return hits, sum
}

// randomSpans returns up to 40 spans ascending at both ends, with runs of
// equal starts and ends, overlaps, gaps and spans of one to ~90 buckets.
func randomSpans(rng *rand.Rand) []peakSpan {
	var spans []peakSpan
	lo, hi := uint32(rng.Intn(3)*rng.Intn(100)), uint32(0)
	for range rng.Intn(40) {
		lo += uint32(rng.Intn(4) * rng.Intn(40))
		hi = max(hi, lo+1+uint32(rng.Intn(3)*rng.Intn(90)))
		spans = append(spans, peakSpan{lo: lo, hi: hi})
	}
	return spans
}

// TestQueryWordsMatchSpans holds appendWords to the spans it is built
// from, on seeded random span sets and on overlapping and equal spans,
// spans across a 64-bucket word edge, one at bucket 0, one many words
// long, and sets with gaps of empty words. The words ascend, one entry
// per word; for every bucket the word's bit is set exactly when some span
// covers it, and the spans walked from the word's first span are the
// binary search's, with the same IonHits and word sum. Clamped to an
// index of fewer buckets than the spans reach, as searchScratch clamps
// them for the per-bucket walk, the binary search over the clamped spans
// still agrees on every bucket below the index's count.
func TestQueryWordsMatchSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	sets := map[string][]peakSpan{
		"none":         nil,
		"bucket 0":     {{lo: 0, hi: 1}},
		"from 0":       {{lo: 0, hi: 64}, {lo: 0, hi: 65}},
		"overlapping":  {{lo: 10, hi: 30}, {lo: 20, hi: 40}, {lo: 25, hi: 90}, {lo: 60, hi: 200}},
		"equal":        {{lo: 70, hi: 80}, {lo: 70, hi: 80}, {lo: 70, hi: 80}},
		"word edges":   {{lo: 63, hi: 64}, {lo: 63, hi: 65}, {lo: 64, hi: 128}, {lo: 127, hi: 129}, {lo: 128, hi: 192}},
		"many words":   {{lo: 5, hi: 700}, {lo: 6, hi: 700}, {lo: 699, hi: 701}},
		"gaps":         {{lo: 0, hi: 5}, {lo: 500, hi: 505}, {lo: 1000, hi: 1100}},
		"nested start": {{lo: 100, hi: 101}, {lo: 100, hi: 300}, {lo: 101, hi: 300}, {lo: 299, hi: 300}},
	}
	for i := range 300 {
		sets[fmt.Sprint("random ", i)] = randomSpans(rng)
	}
	var words []queryWord
	for name, spans := range sets {
		maxHi := uint32(0)
		for i := range spans {
			spans[i].add = 1<<32 | uint64(7*i+1)
			maxHi = max(maxHi, spans[i].hi)
		}
		words = appendWords(words[:0], spans) // reused, as Prepare reuses it
		under := make([]uint64, maxHi/64+2)
		first := make([]uint16, len(under))
		for i, w := range words {
			if i > 0 && w.word <= words[i-1].word {
				t.Fatalf("%s: word %d after word %d", name, w.word, words[i-1].word)
			}
			under[w.word], first[w.word] = w.mask, w.first
		}
		for b := range uint32(len(under) * 64) {
			hits, sum := coveringSpans(spans, b)
			if bit := under[b>>6]>>(b&63)&1 != 0; bit != (hits > 0) {
				t.Fatalf("%s: bucket %d has bit %v, %d spans cover it", name, b, bit, hits)
			}
			if hits == 0 {
				continue
			}
			if wh, ws := walkedSpans(spans, first[b>>6], b); wh != hits || ws != sum {
				t.Fatalf("%s: bucket %d walked from span %d: %d spans summing %#x, binary search %d summing %#x",
					name, b, first[b>>6], wh, ws, hits, sum)
			}
		}
		for _, nb := range []uint32{1, 63, 64, 65, maxHi / 2, maxHi - 1} {
			if nb == 0 || nb >= maxHi {
				continue
			}
			var clamped []peakSpan
			for _, sp := range spans {
				if sp.lo < nb {
					sp.hi = min(sp.hi, nb)
					clamped = append(clamped, sp)
				}
			}
			for b := range nb {
				hits, sum := coveringSpans(clamped, b)
				if bit := under[b>>6]>>(b&63)&1 != 0; bit != (hits > 0) {
					t.Fatalf("%s clamped to %d buckets: bucket %d has bit %v, %d spans cover it", name, nb, b, bit, hits)
				}
				if hits == 0 {
					continue
				}
				if wh, ws := walkedSpans(spans, first[b>>6], b); wh != hits || ws != sum {
					t.Fatalf("%s clamped to %d buckets: bucket %d walked %d spans summing %#x, binary search %d summing %#x",
						name, nb, b, wh, ws, hits, sum)
				}
			}
		}
	}
}

// TestPrepareWords pins when Prepare lists the row scan's words: under a
// bounded precursor tolerance, for spans ascending at both ends, it lists
// appendWords' over its spans; under an open tolerance, or for spans that
// do not ascend, it lists none, so the query never takes the row scan. It
// also holds the probe count and largest span end to the spans.
func TestPrepareWords(t *testing.T) {
	e := queryFor(t, "PEPTIDEK")
	narrow := noModParams()
	narrow.PrecursorTol = mass.Da(0.5)
	var q Query
	for _, tc := range []struct {
		name      string
		params    Params
		ascending bool
	}{
		{"bounded", narrow, true},
		{"open", noModParams(), true},
		{"bounded, spans out of order", narrow, false},
	} {
		e := e
		if !tc.ascending {
			e.Peaks = slices.Clone(e.Peaks)
			slices.Reverse(e.Peaks)
		}
		q.Prepare(e, tc.params)
		if len(q.spans) < 2 {
			t.Fatalf("%s: %d spans", tc.name, len(q.spans))
		}
		probes, maxHi := int64(0), uint32(0)
		for _, sp := range q.spans {
			probes += int64(sp.hi - sp.lo)
			maxHi = max(maxHi, sp.hi)
		}
		if q.probes != probes || q.maxHi != maxHi {
			t.Fatalf("%s: probes %d, maxHi %d; the spans give %d, %d", tc.name, q.probes, q.maxHi, probes, maxHi)
		}
		wantScan := tc.ascending && !tc.params.PrecursorTol.IsOpen()
		var want []queryWord
		if wantScan {
			want = appendWords(nil, q.spans)
		}
		if (len(q.words) > 0) != wantScan || !slices.Equal(q.words, want) {
			t.Fatalf("%s: %d words, want %d", tc.name, len(q.words), len(want))
		}
	}
}

// referenceWindow is precursorWindow before the marks, kept as the
// reference: two binary searches over every row's precursor, for the
// first row at or above wlo and the first row above whi.
func referenceWindow(rows []Row, wlo, whi float64) (rlo, rhi uint32) {
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

// TestPrecursorMarksMatchRowSearch holds the marks lookup to the two
// binary searches over the rows it replaced, on indexes of 0, 1, 7, 8, 9
// and 1 000 rows whose precursors have runs of equal values straddling a
// mark (rows 6–9 across mark 1, 15–16 across mark 2, 22–40 over marks 3
// to 5): for every row, rowsBelow at the row's precursor and the doubles
// just below and just above it, and at values past either end and NaN;
// and precursorWindow, under 0.25 Da, for query masses whose window
// edges fall on, just inside and just outside each row, and under
// 3·10⁶ ppm, where a negative query mass puts the upper edge below the
// lower one.
func TestPrecursorMarksMatchRowSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	params := noModParams()
	const tol = 0.25
	params.PrecursorTol = mass.Da(tol)
	inverted := params
	inverted.PrecursorTol = mass.Ppm(3e6)
	for _, n := range []int{0, 1, 7, 8, 9, 1000} {
		rows := make([]Row, n)
		p := 500.0
		for i := range rows {
			equal := i >= 7 && i <= 9 || i == 16 || i >= 23 && i <= 40
			if !equal {
				p += 0.01 + rng.Float64()*0.3
			}
			rows[i].Precursor = p
		}
		ix := &Index{params: params, rows: rows}
		ix.marks = ix.precursorMarks()
		if len(ix.marks) != (n+markRows-1)/markRows {
			t.Fatalf("%d rows: %d marks", n, len(ix.marks))
		}
		values := []float64{-400, -1, 0, 1e9, math.Inf(1), math.Inf(-1), math.NaN()}
		for _, r := range rows {
			x := r.Precursor
			values = append(values, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
		}
		for _, v := range values {
			below, atMost := referenceWindow(rows, v, v)
			if got := ix.rowsBelow(v, false, 0, len(ix.marks)); got != below {
				t.Fatalf("%d rows: %d rows below %v by the marks, %d by the rows", n, got, v, below)
			}
			if got := ix.rowsBelow(v, true, 0, len(ix.marks)); got != atMost {
				t.Fatalf("%d rows: %d rows at most %v by the marks, %d by the rows", n, got, v, atMost)
			}
		}
		for _, v := range values {
			for _, qmass := range []float64{v, v - tol, v + tol, math.Nextafter(v-tol, 0), math.Nextafter(v+tol, 2e9)} {
				wlo, whi := params.PrecursorTol.Window(qmass)
				wantLo, wantHi := referenceWindow(rows, wlo, whi)
				if n == 0 {
					wantLo, wantHi = 0, 0
				}
				if lo, hi := ix.precursorWindow(qmass); lo != wantLo || hi != wantHi {
					t.Fatalf("%d rows, query mass %v: window [%d, %d) by the marks, [%d, %d) by the rows", n, qmass, lo, hi, wantLo, wantHi)
				}
			}
			ppm := &Index{params: inverted, rows: rows, marks: ix.marks}
			wlo, whi := inverted.PrecursorTol.Window(v)
			wantLo, wantHi := referenceWindow(rows, wlo, whi)
			if n == 0 {
				wantLo, wantHi = 0, 0
			}
			if lo, hi := ppm.precursorWindow(v); lo != wantLo || hi != wantHi {
				t.Fatalf("%d rows, query mass %v under %v: window [%d, %d) by the marks, [%d, %d) by the rows", n, v, inverted.PrecursorTol, lo, hi, wantLo, wantHi)
			}
		}
		if n == 1000 {
			wlo, whi := inverted.PrecursorTol.Window(-400)
			if rlo, _ := referenceWindow(rows, wlo, whi); whi >= wlo || rlo == 0 {
				t.Fatalf("window [%v, %v] at -400 under %v is not inverted above a row", wlo, whi, inverted.PrecursorTol)
			}
		}
	}
}

// TestRowScanLeavesBitsetClean holds the row scan's cleanup: one Scratch
// searching prepared queries, whose last peaks reach past the smaller
// index's buckets or end on and around its last, against two indexes of different bucket counts in
// turn, both with row views, leaves the bitset all zero after every
// search, and answers as a fresh Scratch does; on each index some search
// reads the view.
func TestRowScanLeavesBitsetClean(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	params := noModParams()
	params.PrecursorTol = mass.Da(0.5)
	short := randPeptides(rng, 40)
	long := slices.Clone(short)
	for i := range long {
		long[i] += "WWWWWWK"
	}
	var indexes []*Index
	for _, peps := range [][]string{short, long} {
		ix, err := Build(peps, params)
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, withRowView(t, ix))
	}
	bucketer := mass.NewBucketer(params.Resolution)
	var scratch Scratch
	var queries []spectrum.Experimental
	for i := range 20 {
		// Odd queries hit the long peptides, whose spans reach past the
		// short index's buckets; even ones the short, with a last peak
		// whose span ends from 4 buckets below the short index's end to 5
		// past it.
		e := noisyQuery(rng, long[rng.Intn(len(long))])
		end := uint32(indexes[1].numBuckets)
		if i%2 == 0 {
			e = noisyQuery(rng, short[rng.Intn(len(short))])
			end = uint32(indexes[0].numBuckets + i/2 - 4)
			mz := float64(end) * params.Resolution
			for {
				if _, hi := bucketer.Range(mz, params.FragmentTol); uint32(hi+1) <= end {
					break
				}
				mz -= params.Resolution / 8
			}
			e.Peaks = append(e.Peaks, spectrum.Peak{MZ: mz, Intensity: 50})
			e.SortPeaks()
		}
		queries = append(queries, e)
		var q Query
		q.Prepare(e, params)
		if len(q.words) == 0 || i%2 == 0 && q.maxHi != end || i%2 != 0 && q.maxHi <= uint32(indexes[0].numBuckets) {
			t.Fatalf("query %d: %d words, spans up to bucket %d; short index of %d buckets", i, len(q.words), q.maxHi, indexes[0].numBuckets)
		}
		for _, ix := range []*Index{indexes[1], indexes[0], indexes[1]} {
			got, gw := ix.SearchQuery(&q, 0, &scratch)
			for w, bits := range scratch.under {
				if bits != 0 {
					t.Fatalf("query %d on %d buckets: bitset word %d left at %#x", i, ix.numBuckets, w, bits)
				}
			}
			want, ww := ix.SearchQuery(&q, 0, nil)
			if !sameMatchSet(got, want) || gw != ww {
				t.Fatalf("query %d on %d buckets: warm scratch %+v %+v, fresh scratch %+v %+v", i, ix.numBuckets, got, gw, want, ww)
			}
		}
	}
	for _, ix := range indexes {
		if !readsView(ix, queries, &scratch) {
			t.Fatalf("no search on %d buckets read the row view", ix.numBuckets)
		}
	}
}
