package slm

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"lbe/internal/mods"
)

// FuzzDecodeIndex hammers the SLMX decoder with arbitrary images. The
// decoder must never panic, hang, or allocate proportionally to a forged
// count field; any image it does accept must re-serialize to the same
// bytes — the writer emits exactly the layout the reader pins.
func FuzzDecodeIndex(f *testing.F) {
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	ix, err := Build([]string{"PEPTIDEK", "NQKCMAAR"}, params)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := ix.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	empty, err := Build(nil, DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	var emptyBuf bytes.Buffer
	if _, err := empty.WriteTo(&emptyBuf); err != nil {
		f.Fatal(err)
	}

	plainParams := DefaultParams()
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
	for _, version := range []byte{1, 2} {
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
	var plainV3 bytes.Buffer
	if _, err := plain.WriteTo(&plainV3); err != nil {
		f.Fatal(err)
	}
	forged := append([]byte(nil), plainV3.Bytes()[:headerLen]...)
	binary.LittleEndian.PutUint64(forged[tableOff+8:], 1<<27)
	refixHeaderCRC(forged, crcOff)
	f.Add(forged)
	badSec := append([]byte(nil), plainV3.Bytes()...)
	badSec[len(badSec)-1] ^= 0xFF
	f.Add(badSec)
	f.Add(plainV3.Bytes()[:len(plainV3.Bytes())/2])
	// Bytes after the last section: covered by no checksum, refused.
	f.Add(append(append([]byte(nil), plainV3.Bytes()...), "JUNKJUNKJUNK"...))

	// Semantic-corruption seeds: bytes whose CRCs all verify but whose
	// precursor-order invariants are broken. The decoder must reject, not
	// mis-serve, each of them.
	//   entry 4 (precs): first two entries swapped — non-monotone column,
	//   and one that also disagrees with the rows it mirrors.
	//   entry 3 (perm): first entry duplicated — not a permutation.
	//   entry 3 (perm): count forged to mismatch rows.
	v3 := plainV3.Bytes()
	secCorrupt := func(sec int, mutate func(d []byte, lo int64)) []byte {
		d := append([]byte(nil), v3...)
		entry := d[tableOff+sec*sectionEntryBytes:]
		lo := int64(binary.LittleEndian.Uint64(entry[0:8]))
		count := int64(binary.LittleEndian.Uint64(entry[8:16]))
		mutate(d, lo)
		binary.LittleEndian.PutUint32(entry[16:20],
			crc32.ChecksumIEEE(d[lo:lo+sectionElemBytes[sec]*count]))
		refixHeaderCRC(d, crcOff)
		return d
	}
	if plain.NumRows() >= 2 {
		f.Add(secCorrupt(4, func(d []byte, lo int64) {
			a := binary.LittleEndian.Uint64(d[lo : lo+8])
			b := binary.LittleEndian.Uint64(d[lo+8 : lo+16])
			binary.LittleEndian.PutUint64(d[lo:lo+8], b)
			binary.LittleEndian.PutUint64(d[lo+8:lo+16], a)
		}))
		f.Add(secCorrupt(3, func(d []byte, lo int64) {
			binary.LittleEndian.PutUint32(d[lo:lo+4], binary.LittleEndian.Uint32(d[lo+4:lo+8]))
		}))
	}
	permMismatch := append([]byte(nil), v3...)
	binary.LittleEndian.PutUint64(permMismatch[tableOff+3*sectionEntryBytes+8:], uint64(plain.NumRows())+1)
	refixHeaderCRC(permMismatch, crcOff)
	f.Add(permMismatch)

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
