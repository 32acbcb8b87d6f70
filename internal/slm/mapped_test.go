package slm

import (
	"bytes"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func saveTestIndex(t *testing.T, ix *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "part.slm")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenIndexMappedMatchesHeap pins the tentpole equivalence: a mapped
// open must agree with the heap open byte for byte — same shape, same
// rows, and bit-identical search results.
func TestOpenIndexMappedMatchesHeap(t *testing.T) {
	built := buildTestIndex(t)
	path := saveTestIndex(t, built)

	heap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenIndexMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if runtime.GOOS == "linux" && !mapped.Mapped() {
		t.Error("OpenIndexMapped fell back to heap on linux")
	}
	if heap.Mapped() {
		t.Error("heap-loaded index claims to be mapped")
	}
	if err := heap.Verify(); err != nil {
		t.Errorf("heap Verify must be a no-op: %v", err)
	}
	// An open index verifies, repeatedly.
	if err := mapped.Verify(); err != nil {
		t.Fatalf("mapped Verify: %v", err)
	}
	if err := mapped.Verify(); err != nil {
		t.Fatalf("second mapped Verify: %v", err)
	}

	if mapped.NumRows() != heap.NumRows() || mapped.NumIons() != heap.NumIons() ||
		mapped.numBuckets != heap.numBuckets {
		t.Fatalf("shape: mapped %d/%d/%d, heap %d/%d/%d",
			mapped.NumRows(), mapped.NumIons(), mapped.numBuckets,
			heap.NumRows(), heap.NumIons(), heap.numBuckets)
	}
	for rid := uint32(0); rid < uint32(heap.NumRows()); rid++ {
		if mapped.Row(rid) != heap.Row(rid) {
			t.Fatalf("row %d: mapped %+v, heap %+v", rid, mapped.Row(rid), heap.Row(rid))
		}
	}
	for _, pep := range []string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK"} {
		q := queryFor(t, pep)
		a, wa := heap.Search(q, 0, nil)
		b, wb := mapped.Search(q, 0, nil)
		if len(a) != len(b) || wa != wb {
			t.Fatalf("%s: %d/%d matches, widened %v/%v", pep, len(a), len(b), wa, wb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s match %d: heap %+v, mapped %+v", pep, i, a[i], b[i])
			}
		}
	}
	if mapped.MemoryBytes() != heap.MemoryBytes() {
		t.Errorf("memory accounting differs: mapped %d, heap %d",
			mapped.MemoryBytes(), heap.MemoryBytes())
	}
}

// TestOpenIndexMappedEmpty covers the zero-row, zero-posting corner.
func TestOpenIndexMappedEmpty(t *testing.T) {
	empty, err := Build(nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenIndexMapped(saveTestIndex(t, empty))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.NumRows() != 0 || mapped.NumIons() != 0 {
		t.Errorf("empty mapped index: %d rows %d ions", mapped.NumRows(), mapped.NumIons())
	}
}

// TestDecodeIndexMisaligned hands DecodeIndex an image that starts one
// byte past an 8-aligned address, where no section can be viewed in
// place: it must be copied once into an aligned image whose arrays equal
// the aligned open's exactly and answer the same queries byte-identically.
func TestDecodeIndexMisaligned(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildTestIndex(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	image := alignedBytes(int64(buf.Len()) + 8)[1 : 1+buf.Len()]
	copy(image, buf.Bytes())
	if isAligned(image) {
		t.Fatal("the test image is aligned")
	}
	copied, err := DecodeIndex(image)
	if err != nil {
		t.Fatal(err)
	}
	if !isAligned(copied.image) || !bytes.Equal(copied.image, image) {
		t.Fatal("a misaligned image was not copied into an aligned one")
	}
	aligned, err := DecodeIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if &aligned.image[0] != &buf.Bytes()[0] {
		t.Error("an aligned image was copied")
	}
	if !reflect.DeepEqual(copied.rows, aligned.rows) || !reflect.DeepEqual(copied.offsets, aligned.offsets) ||
		!reflect.DeepEqual(copied.ids, aligned.ids) || copied.numBuckets != aligned.numBuckets {
		t.Fatal("the copied image's arrays differ from the aligned open's")
	}
	for _, pep := range []string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK"} {
		q := queryFor(t, pep)
		a, wa := aligned.Search(q, 0, nil)
		b, wb := copied.Search(q, 0, nil)
		if !reflect.DeepEqual(a, b) || wa != wb {
			t.Fatalf("%s: aligned %+v (widened %v), copied %+v (widened %v)", pep, a, wa, b, wb)
		}
	}
}

// TestMappedIndexClose: Close releases the views and is idempotent; a
// closed index neither writes nor searches, even after a clean Verify;
// searching a heap index after (no-op) Close still works.
func TestMappedIndexClose(t *testing.T) {
	mapped, err := OpenIndexMapped(saveTestIndex(t, buildTestIndex(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := mapped.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Errorf("WriteTo on a closed index: %d bytes, %v", n, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SearchCut on a closed index did not panic")
			}
		}()
		mapped.SearchCut(queryFor(t, "PEPTIDEK"), 0, nil)
	}()
	if mapped.Mapped() {
		t.Error("closed index still claims to be mapped")
	}
	if err := mapped.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if mapped.NumRows() != 0 {
		t.Errorf("closed index retains %d rows", mapped.NumRows())
	}

	heap := buildTestIndex(t)
	if err := heap.Close(); err != nil {
		t.Fatal(err)
	}
	if heap.NumRows() == 0 {
		t.Error("Close must be a no-op for heap indexes")
	}
}
