package slm

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// predictedIndex stages an index the slow way, from each variant's sorted
// PredictIons spectrum: rows in (precursor, enumeration) order, every
// in-range ion's bucket a posting of its row, each bucket's list in row
// order, cut into bands of band(rows) rows with band-local postings. It
// shares nothing with the build but Params and Variants.
func predictedIndex(t *testing.T, peptides []string, params Params, band func(rows int) int) (rows []Row, offsets []uint32, ids []uint16) {
	t.Helper()
	bucketer := mass.NewBucketer(params.Resolution)
	capB := params.capBucket()
	type staged struct {
		row     Row
		buckets []int
	}
	var all []staged
	numBuckets := 0
	for pi, seq := range peptides {
		variants, err := params.Mods.Variants(seq)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			th, err := spectrum.PredictIons(seq, v, params.Mods.Mods, params.series())
			if err != nil {
				t.Fatal(err)
			}
			st := staged{row: Row{Peptide: uint32(pi), Precursor: th.Precursor}}
			for _, ion := range th.Ions {
				if b := bucketer.Bucket(ion); b <= capB {
					st.buckets = append(st.buckets, b)
					numBuckets = max(numBuckets, b+1)
				}
			}
			st.row.NumIons = uint16(len(st.buckets))
			if v.IsModified() {
				st.row.Flags = rowFlagModified
			}
			all = append(all, st)
		}
	}
	slices.SortStableFunc(all, func(a, b staged) int { return cmp.Compare(a.row.Precursor, b.row.Precursor) })

	ids = []uint16{}
	size := band(len(all))
	for base := 0; base < len(all); base += size {
		lists := make([][]uint16, numBuckets)
		for s := base; s < min(base+size, len(all)); s++ {
			for _, b := range all[s].buckets {
				lists[b] = append(lists[b], uint16(s-base))
			}
		}
		for _, l := range lists {
			offsets = append(offsets, uint32(len(ids)))
			ids = append(ids, l...)
		}
		offsets = append(offsets, uint32(len(ids)))
	}
	for _, st := range all {
		rows = append(rows, st.row)
	}
	return rows, offsets, ids
}

// TestBuildMatchesPredictIons holds the build's unsorted ion bucketing to
// the sorted theoretical spectra every other consumer sees: for each ion
// series set, with and without variants, and a scan range low enough to
// drop ions, the serial and a parallel build must give exactly the rows,
// offsets and postings staged from PredictIons — in one band, as the
// format rule cuts a corpus this small, and in three bands, whose edges
// fall inside the parallel build's worker ranges.
func TestBuildMatchesPredictIons(t *testing.T) {
	peptides := buildCorpus(t, 3, 1)
	for _, series := range [][]spectrum.IonKind{
		{spectrum.IonB, spectrum.IonY},
		{spectrum.IonA, spectrum.IonB, spectrum.IonY},
		{spectrum.IonB, spectrum.IonY, spectrum.IonB2, spectrum.IonY2},
		{spectrum.IonY2, spectrum.IonB, spectrum.IonA, spectrum.IonY, spectrum.IonB2},
	} {
		for _, maxPerPep := range []int{0, 2} {
			params := DefaultParams()
			params.IonSeries = series
			params.Mods.MaxPerPep = maxPerPep
			params.MaxFragmentMZ = 900
			for bands, rule := range []func(int) int{bandRows, func(rows int) int { return rows/3 + 1 }} {
				rows, offsets, ids := predictedIndex(t, peptides, params, rule)
				if len(rows) == 0 || len(ids) == 0 {
					t.Fatal("degenerate corpus")
				}
				dropped := 0
				for _, r := range rows {
					dropped += len(peptides[r.Peptide])*len(series) - int(r.NumIons)
				}
				if dropped == 0 {
					t.Fatal("MaxFragmentMZ drops no ion")
				}
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%v/MaxPerPep=%d/bands=%d/workers=%d", series, maxPerPep, 1+2*bands, workers)
					ix, err := build(peptides, params, workers, rule)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(ix.rows, rows) {
						t.Errorf("%s: rows differ from the PredictIons staging", name)
					}
					if !slices.Equal(ix.offsets, offsets) {
						t.Errorf("%s: offsets differ from the PredictIons staging", name)
					}
					if !slices.Equal(ix.ids, ids) {
						t.Errorf("%s: postings differ from the PredictIons staging", name)
					}
				}
			}
		}
	}
}

// TestBuildAllocsPerRow bounds construction allocations: the ion
// generator, variant enumeration and staging reuse their buffers, so the
// build allocates less than once per row it indexes.
func TestBuildAllocsPerRow(t *testing.T) {
	peptides := buildCorpus(t, 10, 2)
	params := DefaultParams()
	params.Mods.MaxPerPep = 2
	ix, err := BuildSerial(peptides, params)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := BuildSerial(peptides, params); err != nil {
			t.Fatal(err)
		}
	})
	rows := ix.NumRows()
	t.Logf("%.0f allocations for %d rows", allocs, rows)
	if allocs > float64(rows) {
		t.Errorf("BuildSerial allocates %.0f times for %d rows (%.2f per row), want <= 1 per row", allocs, rows, allocs/float64(rows))
	}
}
