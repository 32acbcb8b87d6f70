package qcache

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"

	"lbe/internal/spectrum"
)

// Keyer derives content-addressed cache keys. The prefix binds every key
// to the serving context — the store digest, which covers the database
// and everything that shapes a result (engine.Shape: topK, tolerances,
// policy) — so an entry is valid exactly as long as the digest it was
// computed under: change it and every old key becomes unreachable.
type Keyer struct {
	prefix [sha256.Size]byte
}

// NewKeyer builds a Keyer over the serving context parts (the server and
// the router pass the store digest alone). Part boundaries are delimited
// so concatenations cannot collide.
func NewKeyer(parts ...string) Keyer {
	h := sha256.New()
	for _, p := range parts {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Keyer
	h.Sum(k.prefix[:0])
	return k
}

// hashSpectrum feeds one spectrum's search-relevant content into buf/h.
// withScan additionally binds the scan number, for callers caching
// rendered responses (which echo scans); retention time never shapes a
// result and is always excluded.
func hashSpectrum(h io.Writer, e spectrum.Experimental, withScan bool) {
	var buf [16]byte
	if withScan {
		binary.LittleEndian.PutUint64(buf[:8], uint64(int64(e.Scan)))
		h.Write(buf[:8])
	}
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(e.PrecursorMZ))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(e.Charge)))
	h.Write(buf[:])
	for _, p := range e.Peaks {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.MZ))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Intensity))
		h.Write(buf[:])
	}
}

// Spectrum keys one query spectrum by the content that shapes its PSMs:
// precursor m/z, charge, and the (sorted) peak list. Scan number and
// retention time are echoed in responses but never change a PSM, so two
// acquisitions of the same spectrum share one entry. Intended for
// caching per-spectrum PSM lists.
func (k Keyer) Spectrum(e spectrum.Experimental) string {
	h := sha256.New()
	h.Write(k.prefix[:])
	hashSpectrum(h, e, false)
	return string(h.Sum(nil))
}

// Request keys a whole canonicalized request, scan numbers included —
// the form a front-end needs when it caches rendered response bytes,
// which embed each query's scan.
func (k Keyer) Request(qs []spectrum.Experimental) string {
	h := sha256.New()
	h.Write(k.prefix[:])
	for _, e := range qs {
		hashSpectrum(h, e, true)
	}
	return string(h.Sum(nil))
}
