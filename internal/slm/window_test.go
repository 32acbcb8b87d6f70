package slm

import (
	"math/rand"
	"path/filepath"
	"testing"

	"lbe/internal/mass"
)

// TestWindowedScanMatchesFullScan is the core equivalence property of the
// precursor-windowed kernel: for every tolerance — narrow, ppm-relative,
// wider than the indexed mass range, and fully open — the windowed scan
// and the forced full scan must return byte-identical matches in the same
// order, at topK=0 (raw emission order) and topK>0 (ranked). The work
// accounting must also tie out: windowed IonHits + Pruned equals the full
// scan's IonHits, and the scored-set size never changes.
func TestWindowedScanMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	peps := randPeptides(rng, 50)
	for _, tol := range []mass.Tolerance{
		mass.Da(0.01), mass.Da(0.5), mass.Da(3.0),
		mass.Ppm(10), mass.Ppm(500),
		mass.Da(1e7), // wider than any indexed mass range: must fall back
		mass.Open(),
	} {
		params := DefaultParams()
		params.Mods.MaxPerPep = 1
		params.PrecursorTol = tol
		ix, err := Build(peps, params)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Build(peps, params)
		if err != nil {
			t.Fatal(err)
		}
		full.SetFullScan(true)
		for trial := 0; trial < 20; trial++ {
			q := noisyQuery(rng, peps[rng.Intn(len(peps))])
			for _, topK := range []int{0, 5} {
				a, wa := ix.Search(q, topK, nil)
				b, wb := full.Search(q, topK, nil)
				if len(a) != len(b) {
					t.Fatalf("tol %+v topK %d trial %d: %d vs %d matches", tol, topK, trial, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("tol %+v topK %d trial %d match %d: %+v vs %+v", tol, topK, trial, i, a[i], b[i])
					}
				}
				if wa.IonHits+wa.Pruned != wb.IonHits {
					t.Fatalf("tol %+v trial %d: windowed IonHits %d + Pruned %d != full IonHits %d",
						tol, trial, wa.IonHits, wa.Pruned, wb.IonHits)
				}
				if wa.Scored != wb.Scored {
					t.Fatalf("tol %+v trial %d: Scored %d vs %d", tol, trial, wa.Scored, wb.Scored)
				}
				if wb.Pruned != 0 {
					t.Fatalf("tol %+v trial %d: full scan reported Pruned = %d", tol, trial, wb.Pruned)
				}
				if tol.IsOpen() && wa.Pruned != 0 {
					t.Fatalf("open search must not prune, got %d", wa.Pruned)
				}
			}
		}
	}
}

// TestWindowedScanPrunes asserts the windowed scan actually skips work at
// a narrow tolerance on a corpus with spread-out precursor masses — the
// point of the layout, not just its safety.
func TestWindowedScanPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	peps := randPeptides(rng, 80)
	params := DefaultParams()
	params.PrecursorTol = mass.Da(0.5)
	ix, err := Build(peps, params)
	if err != nil {
		t.Fatal(err)
	}
	var total Work
	for trial := 0; trial < 20; trial++ {
		_, w := ix.Search(noisyQuery(rng, peps[rng.Intn(len(peps))]), 0, nil)
		total.Add(w)
	}
	if total.Pruned == 0 {
		t.Error("narrow tolerance on a spread corpus pruned nothing")
	}
	if total.Pruned < total.IonHits {
		t.Logf("pruned %d vs visited %d (corpus-dependent; informational)", total.Pruned, total.IonHits)
	}
}

// TestWindowedScanMapped runs the equivalence check against a mapped v3
// store: the zero-copy perm/precs views must drive the same windowed
// results as the heap index that produced the file.
func TestWindowedScanMapped(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	peps := randPeptides(rng, 40)
	params := DefaultParams()
	params.PrecursorTol = mass.Da(0.5)
	ix, err := Build(peps, params)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "win.slm")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenIndexMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if err := mapped.Verify(); err != nil {
		t.Fatal(err)
	}
	full, err := OpenIndexMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	full.SetFullScan(true)
	for trial := 0; trial < 10; trial++ {
		q := noisyQuery(rng, peps[rng.Intn(len(peps))])
		a, _ := mapped.Search(q, 0, nil)
		b, _ := full.Search(q, 0, nil)
		c, _ := ix.Search(q, 0, nil)
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("trial %d: mapped windowed %d, mapped full %d, heap %d matches", trial, len(a), len(b), len(c))
		}
		for i := range a {
			if a[i] != b[i] || a[i] != c[i] {
				t.Fatalf("trial %d match %d: %+v / %+v / %+v", trial, i, a[i], b[i], c[i])
			}
		}
	}
}
