package slm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lbe/internal/digest"
	"lbe/internal/gen"
	"lbe/internal/mods"
)

// buildCorpus digests a synthetic proteome into a deduplicated peptide list.
func buildCorpus(tb testing.TB, families, homologs int) []string {
	tb.Helper()
	recs, err := gen.Proteome(gen.ProteomeConfig{
		Seed: 31, NumFamilies: families, Homologs: homologs, MeanLen: 280, MutationRate: 0.03,
	})
	if err != nil {
		tb.Fatal(err)
	}
	seqs := make([]string, len(recs))
	for i, r := range recs {
		seqs[i] = r.Sequence
	}
	peps, err := digest.DefaultConfig().Proteome(seqs)
	if err != nil {
		tb.Fatal(err)
	}
	return digest.Sequences(digest.Dedup(peps))
}

// indexBytes serializes an index to its canonical SLMX byte form.
func indexBytes(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelBuildIdenticalToSerial: the sharded parallel build must
// produce an index byte-identical to the serial reference for any worker
// count, including degenerate ones.
func TestParallelBuildIdenticalToSerial(t *testing.T) {
	peptides := buildCorpus(t, 12, 2)
	params := DefaultParams()
	params.Mods = mods.Config{Mods: mods.PaperSet(), MaxPerPep: 1}

	ref, err := BuildSerial(peptides, params)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumRows() == 0 {
		t.Fatal("reference index is empty; corpus too small")
	}
	want := indexBytes(t, ref)
	requireImage(t, ref)
	// Serial images of the first peptides cut into bands of 1 to 8 rows,
	// which every worker count below must reproduce.
	var bandedRefs [8][]byte
	for band := range bandedRefs {
		banded, err := build(peptides[:3], params, 1, func(int) int { return 1 + band })
		if err != nil {
			t.Fatal(err)
		}
		bandedRefs[band] = requireImage(t, banded).image
	}

	for _, workers := range []int{0, 2, 3, 5, 8, 64, len(peptides) + 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ix, err := BuildWorkers(peptides, params, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ix.rows, ref.rows) {
				t.Fatal("rows differ from serial build")
			}
			if !reflect.DeepEqual(ix.offsets, ref.offsets) {
				t.Fatal("CSR offsets differ from serial build")
			}
			if !reflect.DeepEqual(ix.ids, ref.ids) {
				t.Fatal("CSR postings differ from serial build")
			}
			if ix.BuildPeakBytes() != ref.BuildPeakBytes() {
				t.Fatalf("build peak %d != serial %d", ix.BuildPeakBytes(), ref.BuildPeakBytes())
			}
			if got := indexBytes(t, ix); !bytes.Equal(got, want) {
				t.Fatal("serialized index differs from serial build")
			}
			requireImage(t, ix)
			for band := range bandedRefs {
				banded, err := build(peptides[:3], params, workers, func(int) int { return 1 + band })
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(requireImage(t, banded).image, bandedRefs[band]) {
					t.Fatalf("bands of %d rows: image differs from serial build", 1+band)
				}
			}
		})
	}
}

// TestParallelBuildEdgeCases: empty and tiny databases must behave exactly
// like the serial build, including construction errors.
func TestParallelBuildEdgeCases(t *testing.T) {
	params := DefaultParams()
	params.Mods.MaxPerPep = 0

	ser, err := BuildSerial(nil, params)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildWorkers(nil, params, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.NumRows() != ser.NumRows() || !bytes.Equal(indexBytes(t, par), indexBytes(t, ser)) {
		t.Fatal("empty parallel build differs from serial")
	}

	// The first failing peptide's error must be reported regardless of
	// which shard holds it.
	bad := []string{"PEPTIDEK", "AX!BAD", "ANOTHERK", "ZZ!WORSE"}
	serErr := func() string {
		_, err := BuildSerial(bad, params)
		if err == nil {
			t.Fatal("serial build accepted invalid residues")
		}
		return err.Error()
	}()
	for _, workers := range []int{2, 4} {
		_, err := BuildWorkers(bad, params, workers)
		if err == nil {
			t.Fatalf("workers=%d accepted invalid residues", workers)
		}
		if err.Error() != serErr {
			t.Fatalf("workers=%d error %q, serial %q", workers, err, serErr)
		}
	}
}

// BenchmarkIndexBuild compares serial and parallel construction at two
// database scales; the perf trajectory is tracked from PR 1 onward.
func BenchmarkIndexBuild(b *testing.B) {
	params := DefaultParams()
	params.Mods = mods.Config{Mods: mods.PaperSet(), MaxPerPep: 1}
	for _, size := range []struct {
		name               string
		families, homologs int
	}{
		{"1k", 10, 2},
		{"10k", 60, 3},
	} {
		peptides := buildCorpus(b, size.families, size.homologs)
		b.Run(fmt.Sprintf("peptides=%s/serial", size.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildSerial(peptides, params); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("peptides=%s/parallel", size.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(peptides, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
