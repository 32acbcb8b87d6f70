package slm

import "context"

// rowView is an index's postings transposed to row-major order: row r's
// buckets, ascending, are buckets[start[r]:start[r+1]]. It is what a
// search scans instead of the bucket lists in a band the precursor window
// cuts (see searchScratch). It lives on the heap beside the SLMX image,
// which it leaves untouched: 4 bytes per posting and 4 per row.
type rowView struct {
	start   []uint32 // len(rows)+1 prefix sums of Row.NumIons
	buckets []uint32 // one bucket id per posting
}

// viewCheckBuckets is how many buckets BuildRowView transposes between
// looks at its context: about 80 000 postings, 1–2 ms, on a shard of the
// benchmark store — the longest a cancelled build runs on.
const viewCheckBuckets = 4096

// NeedsRowView reports whether BuildRowView would build anything: the
// index has a bounded precursor tolerance, so its windows cut bands, and
// no view has been published yet. An open-tolerance index never cuts a
// band and never builds one.
func (ix *Index) NeedsRowView() bool {
	return len(ix.rows) > 0 && !ix.params.PrecursorTol.IsOpen() && ix.view.Load() == nil
}

// BuildRowView transposes the index's banded postings into the row-major
// view the windowed scan reads, and publishes it: searches that start
// after it returns scan a cut band's rows instead of binary searching
// each bucket under the query's peaks. Answers and Work are the same
// with and without it. It is a no-op when NeedsRowView is false, and
// returns ctx's error, publishing nothing, if ctx ends first.
//
// Row offsets are prefix sums of Row.NumIons, which every open checks
// against the postings (validateShape). The transpose scatters one
// posting at a time — 15–19 ns each, 60–75 ms for a 3.9 M-posting shard
// on a 2-vCPU VM — so a caller runs it off the answer path; a session
// runs it in the background once its first batch has been answered.
func (ix *Index) BuildRowView(ctx context.Context) error {
	if !ix.NeedsRowView() {
		return nil
	}
	rows := ix.rows
	// start[r+1] is row r's write cursor while postings are placed, and
	// ends as row r+1's start.
	start := make([]uint32, len(rows)+1)
	sum := uint32(0)
	for r, row := range rows {
		start[r+1] = sum
		sum += uint32(row.NumIons)
	}
	buckets := make([]uint32, len(ix.ids))
	nb1 := ix.numBuckets + 1
	for k, base := 0, 0; base < len(rows); k, base = k+1, base+ix.bandRows {
		off := ix.offsets[k*nb1 : (k+1)*nb1]
		cursor := start[base+1:]
		for b := range ix.numBuckets {
			if b%viewCheckBuckets == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for _, rid := range ix.ids[off[b]:off[b+1]] {
				buckets[cursor[rid]] = uint32(b)
				cursor[rid]++
			}
		}
	}
	ix.view.CompareAndSwap(nil, &rowView{start: start, buckets: buckets})
	return nil
}
