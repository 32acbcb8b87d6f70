package slm

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/mods"
	"lbe/internal/spectrum"
)

// FuzzDecodeIndex hammers the SLMX decoder with arbitrary images. The
// decoder must never panic, hang, or allocate proportionally to a forged
// count field; any image it does accept must re-serialize to the same
// bytes — the writer emits exactly the layout the reader pins. The seed
// images index a small bucket universe (0.5 wide buckets up to m/z 400),
// so each is a few KB and the mutator and minimizer work on every byte
// at full speed.
func FuzzDecodeIndex(f *testing.F) {
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	params.Resolution, params.MaxFragmentMZ = 0.5, 400
	ix, err := Build([]string{"PEPTIDEK", "NQKCMAAR"}, params)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := ix.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	empty, err := Build(nil, params)
	if err != nil {
		f.Fatal(err)
	}
	var emptyBuf bytes.Buffer
	if _, err := empty.WriteTo(&emptyBuf); err != nil {
		f.Fatal(err)
	}

	plainParams := params
	plainParams.Mods = mods.Config{}
	plain, err := Build([]string{"PEPTIDEK"}, plainParams)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid.Bytes())
	f.Add(emptyBuf.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte("SLMX"))
	f.Add([]byte("NOPE"))
	// Headers of the retired format versions: refused at the version
	// field with the rebuild hint, whatever follows.
	for _, version := range []byte{1, 2, 3, 4} {
		old := append([]byte(nil), valid.Bytes()...)
		old[len(indexMagic)] = version
		if _, err := DecodeIndex(old); err == nil || !strings.Contains(err.Error(), "rebuild with `lbe-index -out`") {
			f.Fatalf("v%d header: got %v, want the rebuild hint", version, err)
		}
		f.Add(old)
	}
	// The first mod-name length (offset 66 with no explicit ion series:
	// magic 4 + version 4 + params 54 + nseries 4) forged huge in a
	// truncated header.
	hugeName := append([]byte(nil), valid.Bytes()[:70]...)
	binary.LittleEndian.PutUint32(hugeName[66:], 0xFFFFFFFF)
	f.Add(hugeName)
	// A forged section table — gigantic rows count at the
	// canonical offsets with a re-fixed header CRC — and a corrupt
	// section CRC in an otherwise intact file.
	tableOff, crcOff, headerLen := headerOffsets(plain)
	var plainImage bytes.Buffer
	if _, err := plain.WriteTo(&plainImage); err != nil {
		f.Fatal(err)
	}
	forged := append([]byte(nil), plainImage.Bytes()[:headerLen]...)
	binary.LittleEndian.PutUint64(forged[tableOff+8:], 1<<27)
	refixHeaderCRC(forged, crcOff)
	f.Add(forged)
	badSec := append([]byte(nil), plainImage.Bytes()...)
	badSec[len(badSec)-1] ^= 0xFF
	f.Add(badSec)
	f.Add(plainImage.Bytes()[:len(plainImage.Bytes())/2])
	// Bytes after the last section: covered by no checksum, refused.
	f.Add(append(append([]byte(nil), plainImage.Bytes()...), "JUNKJUNKJUNK"...))

	// Semantic-corruption seeds: bytes whose CRCs all verify but whose
	// mass-order invariants are broken. The decoder must reject, not
	// mis-serve, each of them:
	//   rows: the first two rows' precursors swapped — out of order;
	//   ids: the first posting past the last row;
	//   ids: the first two adjacent distinct postings of one bucket
	//   swapped — an unsorted bucket list.
	tableOff, crcOff, _ = headerOffsets(ix)
	le := binary.LittleEndian
	secCorrupt := func(sec int, mutate func(d []byte, lo int64)) []byte {
		d := append([]byte(nil), valid.Bytes()...)
		entry := d[tableOff+sec*sectionEntryBytes:]
		lo := int64(le.Uint64(entry[0:8]))
		count := int64(le.Uint64(entry[8:16]))
		mutate(d, lo)
		le.PutUint32(entry[16:20], crc32.ChecksumIEEE(d[lo:lo+sectionElemBytes[sec]*count]))
		refixHeaderCRC(d, crcOff)
		return d
	}
	if ix.rows[0].Precursor == ix.rows[1].Precursor {
		f.Fatal("the first two rows share a precursor; swapping them breaks nothing")
	}
	f.Add(secCorrupt(0, func(d []byte, lo int64) {
		a, b := le.Uint64(d[lo:]), le.Uint64(d[lo+rowWireBytes:])
		le.PutUint64(d[lo:], b)
		le.PutUint64(d[lo+rowWireBytes:], a)
	}))
	f.Add(secCorrupt(2, func(d []byte, lo int64) {
		le.PutUint16(d[lo:], uint16(ix.NumRows()))
	}))
	unsorted := firstDistinctPair(ix)
	if unsorted < 0 {
		f.Fatal("no bucket holds two distinct rows")
	}
	f.Add(secCorrupt(2, func(d []byte, lo int64) { swapPostings(d, lo, unsorted) }))

	// A valid image cut into bands of three rows: band edges, band-local
	// postings and a short last band for the mutator to start from.
	banded, err := build([]string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK", "MCNQWYKR"}, params, 1, func(int) int { return 3 })
	if err != nil {
		f.Fatal(err)
	}
	if banded.numBands() < 3 || banded.NumRows()%3 == 0 {
		f.Fatalf("%d rows in %d bands: want three or more bands, the last one short", banded.NumRows(), banded.numBands())
	}
	f.Add(indexBytes(f, banded))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder may alias its input and the engine hands it
		// read-only bytes; give it its own copy.
		got, err := DecodeIndex(append([]byte(nil), data...))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := got.WriteTo(&buf); err != nil {
			t.Fatalf("re-serializing an accepted index failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("an accepted %d-byte image re-serializes to %d different bytes", len(data), buf.Len())
		}
	})
}

// Query shapes of FuzzSearchVsBruteForce, bits of its peaks argument.
const (
	fuzzJitter = 1 << iota // move every ion peak by up to ±0.02
	fuzzNoise              // add five peaks anywhere in the scan range
	fuzzDupes              // repeat every other peak's m/z
	fuzzAbove              // add peaks at and past the indexed range's end
	fuzzWide               // pad to MaxQueryPeaks+1 peaks
	fuzzEmpty              // drop every peak
)

// edgeMZ returns the charge-1 precursor m/z of the query mass furthest
// from row on side dir (+1 above, -1 below) whose tol window still admits
// row — or, with past set, the next float beyond it, which does not. It
// returns the m/z of row itself when the window has no edge to find.
func edgeMZ(tol mass.Tolerance, row, dir float64, past bool) float64 {
	admits := func(bits uint64) bool {
		q := spectrum.Experimental{PrecursorMZ: math.Float64frombits(bits), Charge: 1}
		return tol.Contains(q.PrecursorMass(), row)
	}
	on, off := mass.MZ(row, 1), mass.MZ(row+dir*(2*tol.Width(row)+1), 1)
	a, b := math.Float64bits(on), math.Float64bits(off)
	if tol.IsOpen() || off <= 0 || !admits(a) || admits(b) {
		return on
	}
	// Positive floats order as their bits; admission is monotone from
	// the row outwards, so bisect the bits between a (in) and b (out).
	for a+1 != b && b+1 != a {
		if m := (a + b) / 2; admits(m) {
			a = m
		} else {
			b = m
		}
	}
	if past {
		return math.Float64frombits(b)
	}
	return math.Float64frombits(a)
}

// FuzzSearchVsBruteForce holds the index kernel to BruteForce, the one
// implementation sharing no layout code with it. The input decides all
// of it: a database of 1–16 peptides cycling through 1 to 16 distinct
// sequences (a single one is all ties), zero to two mods per peptide, the
// fragment tolerance, an open, Da or ppm precursor tolerance, the
// shared-peak threshold, and a query from one row's ion ladder — shaped
// by the peaks bits — whose precursor is the row's, on an edge of the
// window around it, or one float step past that edge. For k%3 of 0, 1
// or 3, SearchQuery on the built index, on the index decoded from its own
// WriteTo image, on a stored copy of that image and, for a bounded
// tolerance, an open index's search filtered by Contains must each keep
// exactly the brute-force matches scoring at least the k-th best. All
// four run twice: on indexes cut into bands by the format's rule — one
// band at this size — and on indexes cut into bands of 1 + k/3%8 rows, so
// window edges, band edges and short last bands meet. Each band costs a
// row of offsets, one per bucket, so a database too big for 4 such bands
// gets bands of a quarter of its rows instead. One Scratch serves every
// search of an input, so a search that leaves its accumulator dirty fails
// the next. The built index is searched once more after BuildRowView, and
// must give the same match set and the same Work with its row view as
// without it. The query is also prepared once (Query) and searched
// against every index the input builds, with SearchQuery, which must give
// that index's own search: its match set and its Work.
//
// Seven inputs in eight (seed%8 != 0) index a small bucket universe of
// 2 000–5 600 buckets: a MaxFragmentMZ of 300–555 over 0.1-wide buckets,
// or the whole m/z range over buckets 0.4–1.1 wide. Their offsets rows
// are a few KB, and the stored copy of an image is the decoded index's
// own image decoded again. The eighth keeps the defaults, ~200 000
// buckets of 0.01, and stores the image in a file it maps
// (OpenIndexMapped, then Verify).
func FuzzSearchVsBruteForce(f *testing.F) {
	// seed, npep, distinct, maxMods, fragTol, tolKind, tolVal, minShared, target, peaks, prec, k
	f.Add(int64(1), uint8(7), uint8(0), uint8(1), uint8(5), uint8(0), uint16(0), uint8(3), uint8(0), uint8(0), uint8(0), uint8(1))                    // all ties: 8 copies
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(5), uint8(1), uint16(500), uint8(3), uint8(0), uint8(fuzzJitter), uint8(0), uint8(2))         // a single row
	f.Add(int64(3), uint8(9), uint8(9), uint8(2), uint8(5), uint8(0), uint16(0), uint8(0), uint8(4), uint8(fuzzNoise|fuzzWide), uint8(0), uint8(1))   // MaxQueryPeaks+1 peaks
	f.Add(int64(4), uint8(5), uint8(5), uint8(1), uint8(5), uint8(1), uint16(500), uint8(3), uint8(1), uint8(0), uint8(2), uint8(0))                  // on the window's upper edge
	f.Add(int64(4), uint8(5), uint8(5), uint8(1), uint8(5), uint8(2), uint16(300), uint8(3), uint8(1), uint8(0), uint8(1|4), uint8(0))                // past the lower edge, ppm
	f.Add(int64(5), uint8(4), uint8(4), uint8(1), uint8(10), uint8(0), uint16(0), uint8(0), uint8(2), uint8(fuzzAbove|fuzzDupes), uint8(0), uint8(2)) // empty bucket spans
	f.Add(int64(6), uint8(3), uint8(3), uint8(1), uint8(0), uint8(0), uint16(0), uint8(0), uint8(0), uint8(fuzzEmpty), uint8(0), uint8(0))            // no peaks
	f.Add(int64(7), uint8(15), uint8(15), uint8(2), uint8(5), uint8(1), uint16(3000), uint8(2), uint8(9), uint8(fuzzNoise), uint8(1), uint8(7))       // 3 Da window over bands of 3 rows
	f.Add(int64(8), uint8(15), uint8(11), uint8(1), uint8(5), uint8(2), uint16(9000), uint8(1), uint8(3), uint8(fuzzJitter), uint8(2), uint8(12))     // 900 ppm over bands of 5 rows
	f.Add(int64(9), uint8(13), uint8(13), uint8(2), uint8(5), uint8(0), uint16(0), uint8(2), uint8(6), uint8(fuzzDupes), uint8(0), uint8(23))         // open search over bands of 8 rows
	f.Fuzz(func(t *testing.T, seed int64, npep, distinct, maxMods, fragTol, tolKind uint8, tolVal uint16, minShared, target, peaks, prec, k uint8) {
		rng := rand.New(rand.NewSource(seed))
		base := randPeptides(rng, 1+int(distinct)%(1+int(npep)%16))
		peps := make([]string, 1+int(npep)%16)
		for i := range peps {
			peps[i] = base[i%len(base)]
		}
		params := DefaultParams()
		params.Mods.MaxPerPep = int(maxMods % 3)
		params.FragmentTol = mass.Da(0.01 * float64(fragTol%11))
		params.PrecursorTol = []mass.Tolerance{mass.Open(), mass.Da(float64(tolVal) / 1000), mass.Ppm(float64(tolVal) / 10)}[tolKind%3]
		params.MinSharedPeaks = 1 + int(minShared%6)
		mapFile := seed%8 == 0
		switch {
		case mapFile:
		case seed&1 != 0:
			params.MaxFragmentMZ = float64(300 + seed>>3&0xff)
			params.Resolution = 0.1
		default:
			params.Resolution = 0.1 * float64(4+seed>>3&7)
		}
		ix, err := Build(peps, params)
		if err != nil {
			t.Fatal(err)
		}
		if ix.numBands() > 1 {
			t.Fatalf("%d rows in %d bands: the format rule cuts no band under 65 536 rows", ix.NumRows(), ix.numBands())
		}

		// The query is the ladder of the target-th row in enumeration
		// order: peptides in order, variants in order.
		rid := int(target) % ix.NumRows()
		var th spectrum.Theoretical
		for _, seq := range peps {
			vs, err := params.Mods.Variants(seq)
			if err != nil {
				t.Fatal(err)
			}
			if rid < len(vs) {
				th, err = spectrum.PredictIons(seq, vs[rid], params.Mods.Mods, params.series())
				if err != nil {
					t.Fatal(err)
				}
				break
			}
			rid -= len(vs)
		}
		var q spectrum.Experimental
		for _, ion := range th.Ions {
			if peaks&fuzzJitter != 0 {
				ion += (rng.Float64() - 0.5) * 0.04
			}
			q.Peaks = append(q.Peaks, spectrum.Peak{MZ: ion, Intensity: 10 + 90*rng.Float64()})
		}
		for i := 0; peaks&fuzzNoise != 0 && i < 5; i++ {
			q.Peaks = append(q.Peaks, spectrum.Peak{MZ: params.MaxFragmentMZ * rng.Float64(), Intensity: 10 * rng.Float64()})
		}
		for i := 0; peaks&fuzzDupes != 0 && i < len(th.Ions); i += 2 {
			q.Peaks = append(q.Peaks, spectrum.Peak{MZ: q.Peaks[i].MZ, Intensity: 1 + rng.Float64()})
		}
		for _, mz := range []float64{params.MaxFragmentMZ, params.MaxFragmentMZ + 0.5, 3 * params.MaxFragmentMZ} {
			if peaks&fuzzAbove != 0 {
				q.Peaks = append(q.Peaks, spectrum.Peak{MZ: mz, Intensity: 50})
			}
		}
		for peaks&fuzzWide != 0 && len(q.Peaks) <= params.MaxQueryPeaks {
			q.Peaks = append(q.Peaks, spectrum.Peak{MZ: params.MaxFragmentMZ * rng.Float64(), Intensity: rng.Float64()})
		}
		if peaks&fuzzEmpty != 0 {
			q.Peaks = nil
		}
		q.SortPeaks()
		q.Charge = 1
		q.PrecursorMZ = edgeMZ(params.PrecursorTol, th.Precursor, []float64{0, 1, -1, 0}[prec&3], prec&4 != 0)

		kk := []int{0, 1, 3}[k%3]
		byRow := func(a, b Match) int { return cmp.Compare(a.Row, b.Row) }
		brute, err := BruteForce(peps, params, q)
		if err != nil {
			t.Fatal(err)
		}
		want := cutReference(brute, kk)
		slices.SortFunc(want, byRow)
		check := func(label string, got []Match) {
			t.Helper()
			slices.SortFunc(got, byRow)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, k=%d, %v window, query mass %v on row precursor %v:\n got %+v\nwant %+v",
					label, kk, params.PrecursorTol, q.PrecursorMass(), th.Precursor, got, want)
			}
		}
		small := max(1+int(k/3)%8, (ix.NumRows()+3)/4)
		banded, err := build(peps, params, 0, func(int) int { return small })
		if err != nil {
			t.Fatal(err)
		}
		var scratch Scratch
		var prepared Query
		prepared.Prepare(q, params)
		samePrepared := func(label string, ix *Index) {
			t.Helper()
			got, gw := ix.SearchQuery(&prepared, kk, &scratch)
			want, ww := searchCut(ix, q, kk, &scratch)
			if !sameMatchSet(got, want) || gw != ww {
				t.Fatalf("%s, k=%d: prepared once %+v %+v, the index's own search %+v %+v", label, kk, got, gw, want, ww)
			}
		}
		for _, ix := range []*Index{ix, banded} {
			bands := fmt.Sprintf("%d rows in bands of %d", ix.NumRows(), ix.bandRows)
			got, walked := searchCut(ix, q, kk, &scratch)
			walkedSet := slices.Clone(got)
			check(bands+", built index", got)
			samePrepared(bands+", built index", ix)
			if err := ix.BuildRowView(context.Background()); err != nil {
				t.Fatal(err)
			}
			got, scanned := searchCut(ix, q, kk, &scratch)
			if !sameMatchSet(got, walkedSet) || scanned != walked {
				t.Fatalf("%s, k=%d: with the row view %+v %+v, without it %+v %+v", bands, kk, got, scanned, walkedSet, walked)
			}
			samePrepared(bands+", built index with its row view", ix)

			image := indexBytes(t, ix)
			decoded, err := DecodeIndex(image)
			if err != nil {
				t.Fatal(err)
			}
			got, _ = searchCut(decoded, q, kk, &scratch)
			check(bands+", decoded image", got)
			samePrepared(bands+", decoded image", decoded)

			var stored *Index
			if mapFile {
				path := filepath.Join(t.TempDir(), "image.slmx")
				if err := os.WriteFile(path, image, 0o644); err != nil {
					t.Fatal(err)
				}
				if stored, err = OpenIndexMapped(path); err == nil {
					err = stored.Verify()
				}
			} else {
				stored, err = DecodeIndex(indexBytes(t, decoded))
			}
			if err != nil {
				t.Fatal(err)
			}
			got, _ = searchCut(stored, q, kk, &scratch)
			samePrepared(bands+", stored image", stored)
			stored.Close()
			check(bands+", stored image", got)

			if params.PrecursorTol.IsOpen() {
				continue
			}
			openParams := params
			openParams.PrecursorTol = mass.Open()
			open, err := build(peps, openParams, 0, func(int) int { return ix.bandRows })
			if err != nil {
				t.Fatal(err)
			}
			samePrepared(bands+", open index", open)
			all, _ := open.Search(q, 0, &scratch)
			var admitted []Match
			for _, m := range all {
				if params.PrecursorTol.Contains(q.PrecursorMass(), m.Precursor) {
					admitted = append(admitted, m)
				}
			}
			check(bands+", filtered open index", cutReference(admitted, kk))
		}
	})
}
