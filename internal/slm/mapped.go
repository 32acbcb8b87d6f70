package slm

import (
	"errors"
	"fmt"

	"lbe/internal/mmapio"
)

// OpenIndexMapped opens an SLMX file with its rows/offsets/ids arrays
// backed by zero-copy views of a read-only memory mapping: no array is
// allocated or decoded, no section byte is read at open, and the index's
// resident bytes are kernel page cache shared with every co-located
// process serving the same store.
//
// Validation is split so warm-start stays O(header) instead of O(file):
// the header CRC, the canonical aligned section layout, every count cap
// and the exact file size are verified eagerly — a corrupt section table
// is rejected at open — while the per-section content CRCs, the zero
// padding between sections and the CSR shape invariants are deferred to
// Verify, which runs at most once. Search triggers Verify implicitly, so
// corrupt content is still detected before any match is produced; the
// engine calls Verify on its error path before the first query instead.
//
// The returned index owns the mapping: it stays valid until the index is
// garbage-collected or Close is called. On a platform without usable
// mmap the file is read into the heap instead (identical results; Mapped
// reports false), still with Verify deferred.
func OpenIndexMapped(path string) (*Index, error) {
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	data := m.Bytes()
	h, err := readHeader(data)
	var ix *Index
	if err == nil {
		ix, err = indexFromImage(h, data)
	}
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("mapped open %s: %w", path, err)
	}
	ix.mapping = m
	// The pass faults in the whole file, so the first Search after it
	// runs against a warm mapping. Its failures surface far from the open
	// call, so anchor them to the file they indict.
	ix.verifyFn = func() error {
		m.Advise(mmapio.AdviceSequential)
		defer m.Advise(mmapio.AdviceRandom)
		if err := ix.verify(h); err != nil {
			return fmt.Errorf("mapped index %s: %w", path, err)
		}
		return nil
	}
	return ix, nil
}

// Verify runs the deferred content validation of a mapped open — section
// CRCs, inter-section padding, CSR shape — exactly once, returning the
// same result on every later call. It is a no-op for indexes validated
// at build or decode time (every heap open). Safe for concurrent
// use; Search calls it implicitly, so the warm path below must stay
// free of allocation-inducing constructs (no closures — hotpathalloc
// walks through here).
func (ix *Index) Verify() error {
	if ix.verifyFn == nil {
		return nil
	}
	if ix.verifyDone.Load() {
		return ix.verifyErr
	}
	return ix.verifySlow()
}

// verifySlow is Verify's one-time cold path: classic double-checked
// locking, with the atomic Store publishing verifyErr to lock-free
// fast-path readers.
func (ix *Index) verifySlow() error {
	ix.verifyMu.Lock()
	defer ix.verifyMu.Unlock()
	if !ix.verifyDone.Load() {
		ix.verifyErr = ix.verifyFn()
		ix.verifyDone.Store(true)
	}
	return ix.verifyErr
}

// Mapped reports whether the index's arrays are zero-copy views of a
// memory-mapped store file.
func (ix *Index) Mapped() bool {
	return ix.mapping != nil && ix.mapping.Mapped()
}

// Close releases the mapping backing a mapped index; it is a no-op for
// heap-loaded indexes. After Close, Verify and WriteTo return an error
// and Search panics, as for a corrupt mapping. Callers that share an
// index with concurrent searchers should drop their references instead
// and let the mapping's finalizer release it when the index becomes
// unreachable.
func (ix *Index) Close() error {
	m := ix.mapping
	if m == nil {
		return nil
	}
	// Latch verification closed so a later Verify — and with it Search
	// and WriteTo — refuses the index instead of touching the released
	// mapping, whether or not verification already ran.
	ix.verifyMu.Lock()
	ix.verifyErr = errors.New("slm: index closed")
	ix.verifyDone.Store(true)
	ix.verifyMu.Unlock()
	ix.mapping, ix.image = nil, nil
	ix.rows, ix.offsets, ix.ids, ix.cum = nil, nil, nil, nil
	ix.view.Store(nil)
	return m.Close()
}
