package slm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/mods"
	"lbe/internal/spectrum"
)

func buildTestIndex(t *testing.T) *Index {
	t.Helper()
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	ix, err := Build([]string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// requireImage asserts that ix is its image: the bytes WriteTo emits are
// the image the build laid out, and decoding them gives back the same
// arrays. It returns the decoded index.
func requireImage(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if !bytes.Equal(buf.Bytes(), ix.image) {
		t.Fatal("WriteTo bytes differ from the built image")
	}
	got, err := DecodeIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.rows, ix.rows) || !reflect.DeepEqual(got.offsets, ix.offsets) ||
		!reflect.DeepEqual(got.ids, ix.ids) || got.numBuckets != ix.numBuckets || got.bandRows != ix.bandRows {
		t.Fatal("decoded arrays differ from the built index's")
	}
	return got
}

func TestSerializeRoundTrip(t *testing.T) {
	ix := buildTestIndex(t)
	for band := 1; band <= 8; band++ {
		banded, err := build([]string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK"}, ix.params, 0, func(int) int { return band })
		if err != nil {
			t.Fatal(err)
		}
		requireImage(t, banded)
	}
	got := requireImage(t, ix)
	if got.NumRows() != ix.NumRows() || got.NumIons() != ix.NumIons() {
		t.Fatalf("shape: %d/%d rows, %d/%d ions",
			got.NumRows(), ix.NumRows(), got.NumIons(), ix.NumIons())
	}
	// Search results must be identical.
	q := queryFor(t, "PEPTIDEK")
	a, wa := ix.Search(q, 0, nil)
	b, wb := got.Search(q, 0, nil)
	if len(a) != len(b) || wa != wb {
		t.Fatalf("results differ after round trip: %d vs %d matches", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("match %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Params preserved, including mods.
	if got.Params().Mods.MaxPerPep != 1 || len(got.Params().Mods.Mods) != 3 {
		t.Errorf("params not preserved: %+v", got.Params().Mods)
	}
	if !got.Params().PrecursorTol.IsOpen() {
		t.Error("open precursor tolerance not preserved")
	}
}

func TestSerializeFileRoundTrip(t *testing.T) {
	ix := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "part.slm")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.MemoryBytes() != ix.MemoryBytes() {
		t.Errorf("memory accounting differs: %d vs %d", got.MemoryBytes(), ix.MemoryBytes())
	}
}

func TestSerializeEmptyIndex(t *testing.T) {
	ix, err := Build(nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.NumIons() != 0 {
		t.Errorf("empty index round trip: %d rows %d ions", got.NumRows(), got.NumIons())
	}
}

func TestSerializeDetectsCorruption(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the payload.
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF
	mustReject(t, "byte flipped mid-payload", data)
}

func TestSerializeRejectsBadMagicAndVersion(t *testing.T) {
	mustReject(t, "bad magic", []byte("NOPE1234"))
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version field
	mustReject(t, "future version", data)
}

func TestSerializeTruncated(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 10, len(data) / 2, len(data) - 1} {
		mustReject(t, fmt.Sprintf("truncation at %d", cut), data[:cut])
	}
}

// buildPlainIndex builds an index with no mods and no explicit ion
// series: the smallest params block, and a second pinned encoding.
func buildPlainIndex(t *testing.T) *Index {
	t.Helper()
	params := DefaultParams()
	params.Mods = mods.Config{}
	ix, err := Build([]string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// buildSeriesIndex builds an index over all five ion series with a scan
// range low enough to drop ions: a third pinned encoding, the one whose
// rows carry a, doubly charged and out-of-range ions.
func buildSeriesIndex(t *testing.T) *Index {
	t.Helper()
	params := DefaultParams()
	params.Mods.MaxPerPep = 2
	params.MaxFragmentMZ = 500
	params.IonSeries = []spectrum.IonKind{spectrum.IonY2, spectrum.IonA, spectrum.IonB, spectrum.IonB2, spectrum.IonY}
	ix, err := Build([]string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK", "MCNQWYKR"}, params)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// headerOffsets computes the fixed header geometry for ix's stream: the
// file offsets of the section table and the header CRC, and the total
// header length.
func headerOffsets(ix *Index) (tableOff, crcOff, headerLen int) {
	tableOff = len(indexMagic) + 4 + len(appendParams(nil, ix.params)) + 4 + 4
	crcOff = tableOff + sectionTableEntries*sectionEntryBytes
	headerLen = crcOff + 4
	return
}

// refixHeaderCRC recomputes the header CRC after a test mutates header
// bytes, so the mutation under test — not the CRC — is what the reader
// trips on.
func refixHeaderCRC(data []byte, crcOff int) {
	crc := crc32.ChecksumIEEE(data[len(indexMagic):crcOff])
	binary.LittleEndian.PutUint32(data[crcOff:], crc)
}

// openAll runs data through every opener — DecodeIndex over the bytes,
// LoadFile and the mapped open over a file holding them — and returns
// each one's error by name. The mapped open validates the header eagerly
// and section content lazily, so its verdict is OpenIndexMapped + Verify.
func openAll(t *testing.T, data []byte) map[string]error {
	t.Helper()
	errs := map[string]error{}
	_, errs["DecodeIndex"] = DecodeIndex(append([]byte(nil), data...))
	path := filepath.Join(t.TempDir(), "image.slm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errs["LoadFile"] = LoadFile(path)
	ix, err := OpenIndexMapped(path)
	if err == nil {
		err = ix.Verify()
		ix.Close()
	}
	errs["OpenIndexMapped+Verify"] = err
	return errs
}

// mustReject asserts every entry point refuses the corrupt image.
func mustReject(t *testing.T, name string, data []byte) {
	t.Helper()
	for path, err := range openAll(t, data) {
		if err == nil {
			t.Errorf("%s: %s accepted corrupt input", name, path)
		}
	}
}

// TestSerializeCorruptSectionTable drives the section-table defenses: a
// corrupt section CRC, overlapping / misordered / misaligned section
// offsets, forged counts, a band size out of range or at odds with the
// offsets count, a violated header CRC and nonzero padding must all be
// rejected by every opener.
func TestSerializeCorruptSectionTable(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	tableOff, crcOff, headerLen := headerOffsets(ix)
	offs, _ := fileLayout(int64(headerLen), [sectionTableEntries]int64{
		int64(len(ix.rows)), int64(len(ix.offsets)), int64(len(ix.ids)),
	})

	le := binary.LittleEndian
	// Layout sanity: entry 0's offset field must hold the canonical
	// rows offset before we start mutating.
	if got := le.Uint64(valid[tableOff:]); got != uint64(offs[0]) {
		t.Fatalf("layout drift: rows offset field holds %d, want %d", got, offs[0])
	}

	entry := func(data []byte, i int) []byte { return data[tableOff+i*sectionEntryBytes:] }
	cases := []struct {
		name   string
		mutate func(data []byte)
	}{
		{"rows section CRC flipped", func(d []byte) {
			le.PutUint32(entry(d, 0)[16:], le.Uint32(entry(d, 0)[16:])^0xDEADBEEF)
		}},
		{"ids section CRC flipped", func(d []byte) {
			le.PutUint32(entry(d, 2)[16:], le.Uint32(entry(d, 2)[16:])^1)
		}},
		{"sections overlap", func(d []byte) {
			le.PutUint64(entry(d, 1)[0:], uint64(offs[0])) // offsets atop rows
		}},
		{"sections misordered", func(d []byte) {
			le.PutUint64(entry(d, 0)[0:], uint64(offs[2]))
			le.PutUint64(entry(d, 2)[0:], uint64(offs[0]))
		}},
		{"section misaligned", func(d []byte) {
			le.PutUint64(entry(d, 0)[0:], uint64(offs[0])+8)
		}},
		{"section beyond input", func(d []byte) {
			le.PutUint64(entry(d, 2)[0:], 1<<40)
		}},
		{"rows count forged", func(d []byte) {
			le.PutUint64(entry(d, 0)[8:], uint64(len(ix.rows))+7)
		}},
		{"offsets count vs buckets", func(d []byte) {
			le.PutUint64(entry(d, 1)[8:], uint64(len(ix.offsets))+1)
		}},
		{"band of 0 rows", func(d []byte) {
			le.PutUint32(d[tableOff-4:], 0)
		}},
		{"band of 65 537 rows", func(d []byte) {
			le.PutUint32(d[tableOff-4:], maxBandRows+1)
		}},
		{"offsets count vs bands", func(d []byte) {
			le.PutUint32(d[tableOff-4:], uint32(len(ix.rows)-1)) // two bands
		}},
	}
	for _, tc := range cases {
		data := append([]byte(nil), valid...)
		tc.mutate(data)
		refixHeaderCRC(data, crcOff)
		mustReject(t, tc.name, data)
	}

	// Header CRC itself violated (no re-fix).
	data := append([]byte(nil), valid...)
	data[tableOff] ^= 0xFF
	mustReject(t, "header CRC mismatch", data)

	// Nonzero padding: the byte right after the header is inside the
	// alignment gap (the params block guarantees headerLen < rows offset).
	if int64(headerLen) < offs[0] {
		data = append([]byte(nil), valid...)
		data[headerLen] = 0xAA
		mustReject(t, "nonzero padding", data)
	}

	// Truncated map: every prefix must be rejected by the mapped open.
	for _, cut := range []int{7, headerLen - 1, headerLen, int(offs[1]), int(offs[2]), len(valid) - 1} {
		mustReject(t, fmt.Sprintf("truncated at %d", cut), append([]byte(nil), valid[:cut]...))
	}

	// Older format versions are refused at the version field — before the
	// header CRC, which the patched byte would also break — by an error
	// that names the version and the way out.
	for _, version := range []byte{1, 2, 3, 4} {
		data = append([]byte(nil), valid...)
		data[len(indexMagic)] = version
		want := fmt.Sprintf("version %d (want %d); rebuild with `lbe-index -out`", version, indexVersion)
		for path, err := range openAll(t, data) {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("v%d header: %s returned %v, want the rebuild hint %q", version, path, err, want)
			}
		}
	}
}

// TestSerializeTrailingBytes: bytes after the last section are covered by
// no checksum, so every open must refuse them.
func TestSerializeTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildTestIndex(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("JUNKJUNKJUNK")
	for path, err := range openAll(t, buf.Bytes()) {
		if err == nil || !strings.Contains(err.Error(), "12 trailing bytes") {
			t.Errorf("%s on an image with trailing bytes: %v", path, err)
		}
	}
}

// TestWriteToBytesPinned pins the encoder's output: a change to the SLMX
// bytes must come with a format version bump and new digests here.
func TestWriteToBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		ix   *Index
		want string
	}{
		{"buildTestIndex", buildTestIndex(t), "bedbbb3138e0e5892544df4d2bf245233d05802a47779b9be39e02838127f60f"},
		{"buildPlainIndex", buildPlainIndex(t), "c8a80f7ef4c081f656608ef3b271146ad33bb42780df55f106e0d256963b8ef8"},
		{"buildSeriesIndex", buildSeriesIndex(t), "da87508856ca0ac0dcbb01e2a1c303f117050214fd813c2bc280e51de2eab3a7"},
	} {
		var buf bytes.Buffer
		if _, err := tc.ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("%s: WriteTo output hashes to %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

// TestSerializeCorruptStringLength forges the first mod-name length (with
// no explicit ion series it sits right after the fixed params fields:
// magic 4 + version 4 + params 54 + nseries 4): the reader must fail on
// the count rather than allocate for it.
func TestSerializeCorruptStringLength(t *testing.T) {
	ix := buildTestIndex(t) // three mods
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const nameLenOff = 66
	if got := binary.LittleEndian.Uint32(data[nameLenOff:]); got != uint32(len(ix.params.Mods.Mods[0].Name)) {
		t.Fatalf("layout drift: name length field holds %d", got)
	}
	binary.LittleEndian.PutUint32(data[nameLenOff:], 0xFFFFFF)
	mustReject(t, "huge string length", data)
}

// TestDecodeIndexAllocationBounded asserts the core promise of the
// hardened reader: a tiny image claiming a gigantic array or string is
// refused on the count, with allocations that do not depend on the forged
// number — readHeader allocates the header struct, the decoded mods and
// the error, nothing else. Bound: 4 KiB per refused open.
func TestDecodeIndexAllocationBounded(t *testing.T) {
	ix := buildTestIndex(t) // three mods: there is a string to forge
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tableOff, crcOff, headerLen := headerOffsets(ix)
	le := binary.LittleEndian

	// 2^28 rows (the cap itself, so only the bytes-present check can
	// refuse it), every entry moved to its matching canonical offset and
	// the header CRC re-fixed, so the decoder gets past the layout checks
	// and must survive the forged count itself — over an image holding
	// the header alone.
	hugeRows := append([]byte(nil), buf.Bytes()[:headerLen]...)
	counts := [sectionTableEntries]int64{1 << 28, int64(len(ix.offsets)), int64(len(ix.ids))}
	forged, _ := fileLayout(int64(headerLen), counts)
	for i := 0; i < sectionTableEntries; i++ {
		le.PutUint64(hugeRows[tableOff+i*sectionEntryBytes:], uint64(forged[i]))
		le.PutUint64(hugeRows[tableOff+i*sectionEntryBytes+8:], uint64(counts[i])) // rows claim 4 GiB
	}
	refixHeaderCRC(hugeRows, crcOff)

	// A 1 MiB mod name (the cap itself) in the first 200 bytes of the
	// valid image; see TestSerializeCorruptStringLength for the offset.
	hugeName := append([]byte(nil), buf.Bytes()[:200]...)
	le.PutUint32(hugeName[66:], maxStringLen)

	for name, data := range map[string][]byte{"2^28 rows": hugeRows, "1 MiB string": hugeName} {
		if len(data) > 256 {
			t.Fatalf("%s: image is %d bytes; the case is about tiny inputs", name, len(data))
		}
		const runs = 16
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := DecodeIndex(data); err == nil {
				t.Fatalf("%s: forged count must fail", name)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > runs*4<<10 {
			t.Errorf("%s: %d refused opens allocated %d bytes; the forged count leaked into allocation", name, runs, grew)
		}
	}
}

// TestCheckByteOrder: only a little-endian host can hold an index, whose
// arrays are views of its little-endian image.
func TestCheckByteOrder(t *testing.T) {
	if err := checkByteOrder(binary.LittleEndian); err != nil {
		t.Errorf("little-endian refused: %v", err)
	}
	if err := checkByteOrder(binary.BigEndian); err == nil || !strings.Contains(err.Error(), "big-endian host") {
		t.Errorf("big-endian: %v, want a refusal naming the host", err)
	}
}

// corruptSection applies mutate to section sec of a valid image, then
// re-fixes that section's table CRC and the header CRC — so the bytes
// are internally consistent and only the semantic validation (eager for
// the heap opens, deferred to Verify for the mapped open) can catch the
// corruption.
func corruptSection(t *testing.T, ix *Index, valid []byte, sec int, mutate func(data []byte, lo int64)) []byte {
	t.Helper()
	tableOff, crcOff, _ := headerOffsets(ix)
	le := binary.LittleEndian
	data := append([]byte(nil), valid...)
	entry := data[tableOff+sec*sectionEntryBytes:]
	lo := int64(le.Uint64(entry[0:8]))
	count := int64(le.Uint64(entry[8:16]))
	mutate(data, lo)
	crc := crc32.ChecksumIEEE(data[lo : lo+sectionElemBytes[sec]*count])
	le.PutUint32(entry[16:20], crc)
	refixHeaderCRC(data, crcOff)
	return data
}

// TestSerializeCorruptPrecursorOrder crafts images whose bytes pass every
// CRC but violate the invariants the windowed scan relies on: row
// precursors out of ascending order, out-of-range postings and an
// unsorted bucket posting list. All must fail at open (heap) or Verify
// (mapped) — never serve.
func TestSerializeCorruptPrecursorOrder(t *testing.T) {
	ix := buildTestIndex(t)
	if len(ix.rows) < 3 || len(ix.ids) < 2 {
		t.Fatal("test index too small to corrupt meaningfully")
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	le := binary.LittleEndian

	// Swap the precursors of the first two rows whose masses differ: the
	// rows are no longer in ascending precursor order.
	r := 1
	for r < len(ix.rows) && ix.rows[r].Precursor == ix.rows[r-1].Precursor {
		r++
	}
	if r == len(ix.rows) {
		t.Fatal("every row has the same precursor; pick a corpus with distinct masses")
	}
	mustReject(t, "row precursors swapped",
		corruptSection(t, ix, valid, 0, func(d []byte, lo int64) {
			pa, pb := lo+rowWireBytes*int64(r-1), lo+rowWireBytes*int64(r)
			a := le.Uint64(d[pa : pa+8])
			b := le.Uint64(d[pb : pb+8])
			le.PutUint64(d[pa:pa+8], b)
			le.PutUint64(d[pb:pb+8], a)
		}))

	// Out-of-range posting: past the band's (here the index's) last row.
	mustReject(t, "posting out of range",
		corruptSection(t, ix, valid, 2, func(d []byte, lo int64) {
			le.PutUint16(d[lo:lo+2], uint16(len(ix.rows)))
		}))

	// Reverse a bucket's posting list (the first bucket holding two
	// distinct row ids): the windowed binary search would skip
	// real matches, so the file must be rejected.
	if i := firstDistinctPair(ix); i < 0 {
		t.Error("no bucket with two distinct postings; unsorted-bucket case not exercised")
	} else {
		mustReject(t, "unsorted bucket posting list",
			corruptSection(t, ix, valid, 2, func(d []byte, lo int64) { swapPostings(d, lo, i) }))
	}

	// The band structure itself: a posting moved from the first band's
	// end into the gap before the second band's start, on an index cut
	// into bands of two rows. Every posting stays in range and every list
	// sorted; only the band chain breaks.
	banded, err := build([]string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK"}, ix.params, 1, func(int) int { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	bandedImage := indexBytes(t, banded)
	if _, err := DecodeIndex(bandedImage); err != nil {
		t.Fatalf("an image of bands of two rows: %v", err)
	}
	gap := corruptSection(t, banded, bandedImage, 1, func(d []byte, lo int64) {
		end := banded.offsets[banded.numBuckets] // band 0's end
		for b := banded.numBuckets; b >= 0 && banded.offsets[b] == end; b-- {
			le.PutUint32(d[lo+4*int64(b):], end-1)
		}
	})
	mustReject(t, "band 0 ends before band 1 starts", gap)
	if _, err := DecodeIndex(gap); err == nil || !strings.Contains(err.Error(), "band 1 postings start") {
		t.Errorf("a gap between bands: %v, want the band chain refused", err)
	}
}

// firstDistinctPair returns the position in ix.ids of the first posting
// that differs from the one before it in the same (band, bucket) list,
// or -1 if no list holds two distinct rows.
func firstDistinctPair(ix *Index) int {
	for b := 0; b+1 < len(ix.offsets); b++ {
		for i := ix.offsets[b] + 1; i < ix.offsets[b+1]; i++ {
			if ix.ids[i] != ix.ids[i-1] {
				return int(i)
			}
		}
	}
	return -1
}

// swapPostings swaps postings i-1 and i of the ids section at lo of d.
func swapPostings(d []byte, lo int64, i int) {
	le := binary.LittleEndian
	pa, pb := lo+postingWireBytes*int64(i-1), lo+postingWireBytes*int64(i)
	a, b := le.Uint16(d[pa:]), le.Uint16(d[pb:])
	le.PutUint16(d[pa:], b)
	le.PutUint16(d[pb:], a)
}

// failAfterWriter accepts exactly budget bytes, then fails.
type failAfterWriter struct {
	budget int
	n      int
}

var errWriterFull = errors.New("writer full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n >= w.budget {
		return 0, errWriterFull
	}
	take := min(len(p), w.budget-w.n)
	w.n += take
	if take < len(p) {
		return take, errWriterFull
	}
	return take, nil
}

// TestWriteToReportsPartialCount pins the io.WriterTo contract: on a
// mid-stream write error, WriteTo must return the number of bytes the
// destination actually accepted, not zero.
func TestWriteToReportsPartialCount(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	total, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 1, 3, 7, 64, 100, 4096, int(total) - 1} {
		w := &failAfterWriter{budget: budget}
		n, err := ix.WriteTo(w)
		if !errors.Is(err, errWriterFull) {
			t.Fatalf("budget %d: want errWriterFull, got %v", budget, err)
		}
		if n != int64(w.n) {
			t.Errorf("budget %d: WriteTo reported %d bytes, destination accepted %d", budget, n, w.n)
		}
		if n >= total {
			t.Errorf("budget %d: partial write reported %d >= full size %d", budget, n, total)
		}
	}
}

func TestSerializePreservesTolerances(t *testing.T) {
	params := DefaultParams()
	params.Mods.MaxPerPep = 0
	params.PrecursorTol = mass.Ppm(20)
	ix, err := Build([]string{"PEPTIDEK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Params().PrecursorTol != mass.Ppm(20) {
		t.Errorf("ppm tolerance not preserved: %+v", got.Params().PrecursorTol)
	}
}
