package slm

import (
	"errors"
	"fmt"

	"lbe/internal/mmapio"
)

// errClosed is what a closed index answers instead of its released bytes.
var errClosed = errors.New("slm: index closed")

// OpenIndexMapped opens an SLMX file with its rows/offsets/ids arrays
// backed by zero-copy views of a read-only memory mapping: no array is
// allocated or decoded, and the index's resident bytes are kernel page
// cache shared with every co-located process serving the same store.
//
// It is DecodeIndex over the mapped bytes: the header, the section
// layout, every section CRC, the padding and the shape are all checked
// before it returns, in one sequential pass that also faults the file in,
// so the first search runs against a warm mapping. A corrupt file is
// refused here and never searched.
//
// The returned index owns the mapping: it stays valid until the index is
// garbage-collected or Close is called. On a platform without usable
// mmap the file is read into the heap instead (identical results; Mapped
// reports false).
func OpenIndexMapped(path string) (*Index, error) {
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	m.Advise(mmapio.AdviceSequential)
	ix, err := DecodeIndex(m.Bytes())
	m.Advise(mmapio.AdviceRandom)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("mapped open %s: %w", path, err)
	}
	ix.mapping = m
	return ix, nil
}

// Verify reports an error once Close has released the index, and nil
// otherwise: every open checks the content before it returns, so there is
// nothing left to check. It stays only for callers written against the
// deferred check that opens no longer make, and goes with ROADMAP item
// 1 (e).
func (ix *Index) Verify() error {
	if ix.closed {
		return errClosed
	}
	return nil
}

// Mapped reports whether the index's arrays are zero-copy views of a
// memory-mapped store file.
func (ix *Index) Mapped() bool {
	return ix.mapping != nil && ix.mapping.Mapped()
}

// Close releases the mapping backing a mapped index; it is a no-op for
// heap-loaded indexes. After Close, WriteTo returns an error and Search
// panics. Callers that share an index with concurrent searchers should
// drop their references instead and let the mapping's finalizer release
// it when the index becomes unreachable.
func (ix *Index) Close() error {
	m := ix.mapping
	if m == nil {
		return nil
	}
	ix.closed = true
	ix.mapping, ix.image = nil, nil
	ix.rows, ix.offsets, ix.ids, ix.cum, ix.marks = nil, nil, nil, nil, nil
	ix.view.Store(nil)
	return m.Close()
}
