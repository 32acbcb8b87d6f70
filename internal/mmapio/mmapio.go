// Package mmapio provides read-only memory-mapped file access with a
// portable heap-read fallback.
//
// A Mapping opened on a unix system is backed by mmap(2): the bytes are
// served from the kernel page cache, so opening costs no read or copy,
// resident memory is shared between every process mapping the same file,
// and clean pages are reclaimable under memory pressure. On platforms
// without mmap — or when the mapping syscall fails — Open silently falls
// back to reading the file into the heap, so callers get identical
// semantics everywhere and only the performance profile differs
// (Mapped reports which mode a Mapping is in).
//
// The returned bytes are read-only by contract. Writing to a mapped
// region faults; writing to a fallback region silently diverges from the
// file. Callers must treat Bytes as immutable.
package mmapio

import (
	"fmt"
	"os"
	"runtime"
	"sync"
)

// Advice is a usage hint forwarded to madvise(2) where supported (Linux);
// elsewhere hints are accepted and ignored.
type Advice int

// The supported access-pattern hints.
const (
	// AdviceRandom disables readahead for pointer-chasing access.
	AdviceRandom Advice = iota
	// AdviceSequential aggressively reads ahead for linear scans.
	AdviceSequential
)

// Mapping is one open read-only view of a file: memory-mapped when the
// platform allows it, a heap copy otherwise. The view returned by Bytes
// is valid until Close; a Mapping that is garbage-collected without
// Close unmaps itself via a finalizer, so holding the Mapping (or a
// struct containing it) alive is what keeps derived views safe.
//
// Close is safe to call twice but must not race readers of Bytes.
type Mapping struct {
	mu     sync.Mutex
	data   []byte
	mapped bool
	closed bool
}

// Open maps the named file read-only. Empty files yield a valid Mapping
// with zero-length Bytes. If the platform cannot map (or the mmap
// syscall fails), the file is read into the heap instead and Mapped
// reports false.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("mmapio: %s is not a regular file", path)
	}
	size := fi.Size()
	if size == 0 {
		return &Mapping{}, nil
	}
	if int64(int(size)) != size || size < 0 {
		return nil, fmt.Errorf("mmapio: %s is %d bytes, beyond the addressable range", path, size)
	}

	if data, err := mmapFile(f, int(size)); err == nil {
		m := &Mapping{data: data, mapped: true}
		runtime.SetFinalizer(m, (*Mapping).finalize)
		return m, nil
	}

	// Portable fallback: a private heap copy with identical read
	// semantics (no page-cache sharing, no RSS savings).
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != size {
		return nil, fmt.Errorf("mmapio: %s changed size during open", path)
	}
	return &Mapping{data: data}, nil
}

// Bytes returns the file contents. The slice must be treated as
// read-only and is valid only until Close (or until the Mapping becomes
// unreachable). It returns nil after Close.
func (m *Mapping) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	return m.data
}

// Mapped reports whether the Mapping is backed by mmap rather than a
// heap copy.
func (m *Mapping) Mapped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mapped && !m.closed
}

// Advise forwards an access-pattern hint to the kernel for a mapped
// region; on heap fallbacks and platforms without madvise it is a no-op.
func (m *Mapping) Advise(a Advice) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || !m.mapped || len(m.data) == 0 {
		return nil
	}
	return madvise(m.data, a)
}

// Close releases the mapping (or drops the heap copy). Every view
// previously returned by Bytes becomes invalid: touching one after Close
// faults on mapped platforms. Close is idempotent.
func (m *Mapping) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	data := m.data
	m.data = nil
	if m.mapped {
		runtime.SetFinalizer(m, nil)
		m.mapped = false
		return munmap(data)
	}
	return nil
}

// finalize is the GC-time safety net for mappings dropped without Close.
func (m *Mapping) finalize() {
	m.Close()
}
