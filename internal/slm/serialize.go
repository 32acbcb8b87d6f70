package slm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"lbe/internal/mass"
	"lbe/internal/mods"
	"lbe/internal/spectrum"
)

// Binary index format ("SLMX"): the paper's shared-memory design stores
// index chunks on disk when not in use (§II-B); this file gives the index
// a compact, checksummed serialization so partial indexes can be spilled
// and reloaded.
//
// Layout (little-endian), version 5 — the only version read or written:
//
//	magic "SLMX" | version u32 | params block | numBuckets u32 |
//	bandRows u32 | section table (3 × {offset u64, count u64, crc32 u32}) |
//	header crc32 | padding | rows | padding | offsets | padding | ids
//
// The header CRC covers everything between the magic and itself. Each
// data section starts at a 64-byte-aligned file offset recorded in the
// table, holds count fixed-size records (rows are the in-memory 16-byte
// Row layout; offsets are u32, ids u16), and carries its own CRC. Section
// offsets are canonical — derivable from the header size alone — so a
// table naming overlapping, misordered or misaligned sections is rejected
// outright. Rows are in ascending precursor order, which the windowed
// scan binary searches, cut into bands of bandRows rows (1 to 65 536; the
// writer uses bandRows(rows)). offsets holds numBuckets+1 entries per
// band, band-major, and ids postings are band-local row ids, each
// (band, bucket) list ascending.
//
// An SLMX file is known here only as that layout over one []byte — its
// image — for writing and reading alike. WriteTo builds the header into a
// small buffer and writes it, the zero padding and the three section
// payloads in order; on a little-endian host a payload is the in-memory
// array's own bytes (bytesOf), checksummed once and never copied. Every
// open — DecodeIndex, LoadFile, OpenIndexMapped — is the same three steps
// over the complete image, heap buffer or memory mapping alike:
// readHeader parses and CRC-checks the header, pins the section table to
// the canonical layout and refuses an image longer or shorter than it;
// indexFromImage takes the three section views (the fixed aligned layout
// is what lets them alias the image with no per-element decoding); verify
// checks the section CRCs, the zero padding and the cross-array shape.
// Only the mapped open defers verify (see OpenIndexMapped). A big-endian
// host, or an unaligned image, goes through encodeSection/decodeSection
// element by element instead — the only path there.
//
// Counts come from the (not yet checksum-verified) input, so the reader
// treats them as hostile: each is bounded by an absolute cap AND by the
// bytes actually present — the image's size is a fact, never a claim — so
// an open allocates O(header) when it aliases and at most the image's own
// size when it copy-decodes.

const (
	indexMagic   = "SLMX"
	indexVersion = 5

	// Wire sizes of the variable-length record types.
	rowWireBytes     = rowMemBytes // the in-memory Row layout
	postingWireBytes = 2

	// sectionAlign is the file-offset alignment of every data section:
	// a cache line, and a divisor of the page size, so a page-aligned
	// mapping yields aligned (and cache-line-friendly) array views.
	sectionAlign = 64

	// sectionTableEntries and sectionEntryBytes fix the table shape: rows,
	// offsets, ids — each {offset u64, count u64, crc32 u32}.
	sectionTableEntries = 3
	sectionEntryBytes   = 8 + 8 + 4

	// Absolute sanity caps on count fields, enforced before any
	// allocation. They bound a single shard file at sizes far beyond the
	// paper's full 49.45M-spectra run, and are what checkEncodable holds
	// the writer to.
	maxStringLen    = 1 << 20
	maxModCount     = 1 << 16
	maxSeriesCount  = 16
	maxRowCount     = 1 << 28
	maxBucketCount  = 1 << 30
	maxOffsetCount  = 1 << 30
	maxPostingCount = 1 << 30
)

// isLittleEndian reports whether the host lays out multi-byte integers
// the way the SLMX wire format does; when true, section payloads are
// written from, and aliased as, the in-memory arrays without per-element
// coding.
var isLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// bytesOf returns the raw byte view of an element slice — its wire
// encoding on little-endian hosts, where the in-memory layout is the wire
// layout, and only there. viewAs is its inverse.
func bytesOf[T any](vs []T) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), len(vs)*int(unsafe.Sizeof(vs[0])))
}

// sectionElemBytes[i] is the wire size of one element of section i:
// rows, offsets, ids.
var sectionElemBytes = [sectionTableEntries]int64{rowWireBytes, 4, postingWireBytes}

// encodeSection is decodeSection's mirror: the wire payload of a section
// built one elem-byte record at a time, which is how a big-endian host
// writes — there the in-memory array is not the wire layout.
func encodeSection[T any](vs []T, elem int, put func(rec []byte, v T)) []byte {
	out := make([]byte, len(vs)*elem)
	for i, v := range vs {
		put(out[i*elem:], v)
	}
	return out
}

// encodeRow encodes one 16-byte wire row record.
func encodeRow(rec []byte, r Row) {
	le := binary.LittleEndian
	le.PutUint64(rec[0:8], math.Float64bits(r.Precursor))
	le.PutUint32(rec[8:12], r.Peptide)
	le.PutUint16(rec[12:14], r.NumIons)
	le.PutUint16(rec[14:16], r.Flags)
}

// sectionPayloads returns the wire bytes of the three sections: views of
// the arrays themselves when alias is set (legal only on a little-endian
// host), fresh per-element encodings otherwise.
func (ix *Index) sectionPayloads(alias bool) [sectionTableEntries][]byte {
	if alias {
		return [sectionTableEntries][]byte{bytesOf(ix.rows), bytesOf(ix.offsets), bytesOf(ix.ids)}
	}
	le := binary.LittleEndian
	return [sectionTableEntries][]byte{
		encodeSection(ix.rows, rowWireBytes, encodeRow),
		encodeSection(ix.offsets, 4, le.PutUint32),
		encodeSection(ix.ids, postingWireBytes, le.PutUint16),
	}
}

// appendParams appends the params block to b.
func appendParams(b []byte, p Params) []byte {
	le := binary.LittleEndian
	f64 := func(v float64) { b = le.AppendUint64(b, math.Float64bits(v)) }
	u32 := func(v int) { b = le.AppendUint32(b, uint32(v)) }
	str := func(v string) { u32(len(v)); b = append(b, v...) }
	f64(p.Resolution)
	f64(p.FragmentTol.Value)
	b = append(b, uint8(p.FragmentTol.Unit))
	f64(p.PrecursorTol.Value)
	b = append(b, uint8(p.PrecursorTol.Unit))
	u32(p.MinSharedPeaks)
	u32(p.MaxQueryPeaks)
	f64(p.MaxFragmentMZ)
	u32(p.Mods.MaxPerPep)
	u32(p.Mods.MaxVariant)
	u32(len(p.Mods.Mods))
	u32(len(p.IonSeries))
	for _, k := range p.IonSeries {
		b = append(b, uint8(k))
	}
	for _, m := range p.Mods.Mods {
		str(m.Name)
		str(m.Residues)
		f64(m.Delta)
	}
	return b
}

// checkEncodable rejects an index whose counts exceed the decoder caps,
// so WriteTo can never persist an image readHeader refuses (or, past
// uint32, silently truncates).
func (ix *Index) checkEncodable() error {
	if len(ix.rows) > maxRowCount {
		return fmt.Errorf("slm: %d rows exceed the serializable cap %d", len(ix.rows), maxRowCount)
	}
	if ix.numBuckets > maxBucketCount {
		return fmt.Errorf("slm: %d buckets exceed the serializable cap %d", ix.numBuckets, maxBucketCount)
	}
	if len(ix.offsets) > maxOffsetCount {
		return fmt.Errorf("slm: %d offsets exceed the serializable cap %d", len(ix.offsets), maxOffsetCount)
	}
	if len(ix.ids) > maxPostingCount {
		return fmt.Errorf("slm: %d postings exceed the serializable cap %d", len(ix.ids), maxPostingCount)
	}
	p := ix.params
	if len(p.Mods.Mods) > maxModCount {
		return fmt.Errorf("slm: %d mods exceed the serializable cap %d", len(p.Mods.Mods), maxModCount)
	}
	if len(p.IonSeries) > maxSeriesCount {
		return fmt.Errorf("slm: %d ion series exceed the serializable cap %d", len(p.IonSeries), maxSeriesCount)
	}
	for _, m := range p.Mods.Mods {
		if len(m.Name) > maxStringLen || len(m.Residues) > maxStringLen {
			return fmt.Errorf("slm: mod %q has a string over the serializable cap %d", m.Name, maxStringLen)
		}
	}
	return nil
}

// sectionLayout is the computed file geometry: canonical aligned section
// offsets derived from the header size.
type sectionLayout struct {
	offs [sectionTableEntries]int64
	end  int64 // total file size
}

// alignUp rounds n up to the next multiple of sectionAlign.
func alignUp(n int64) int64 {
	return (n + sectionAlign - 1) &^ (sectionAlign - 1)
}

// fileLayout derives the canonical section offsets for an index whose
// header (magic through header CRC) spans headerLen bytes and whose
// sections hold counts[i] elements each.
func fileLayout(headerLen int64, counts [sectionTableEntries]int64) sectionLayout {
	var l sectionLayout
	off := headerLen
	for i := range counts {
		off = alignUp(off)
		l.offs[i] = off
		off += sectionElemBytes[i] * counts[i]
	}
	l.end = off
	return l
}

// WriteTo serializes the index in the section-table format. It
// implements io.WriterTo: on error it returns the number of bytes the
// underlying writer actually accepted before the failure, not zero.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	// A mapped index defers content validation; run it before
	// re-encoding, or a corrupt mapping would be rewritten under fresh
	// CRCs that bless the corruption.
	if err := ix.Verify(); err != nil {
		return 0, err
	}
	if err := ix.checkEncodable(); err != nil {
		return 0, err
	}
	payloads := ix.sectionPayloads(isLittleEndian)
	counts := [sectionTableEntries]int64{int64(len(ix.rows)), int64(len(ix.offsets)), int64(len(ix.ids))}

	le := binary.LittleEndian
	head := le.AppendUint32([]byte(indexMagic), indexVersion)
	head = appendParams(head, ix.params)
	head = le.AppendUint32(head, uint32(ix.numBuckets))
	head = le.AppendUint32(head, uint32(ix.bandRows))
	layout := fileLayout(int64(len(head))+sectionTableEntries*sectionEntryBytes+4, counts)
	for i, p := range payloads {
		head = le.AppendUint64(head, uint64(layout.offs[i]))
		head = le.AppendUint64(head, uint64(counts[i]))
		head = le.AppendUint32(head, crc32.ChecksumIEEE(p))
	}
	head = le.AppendUint32(head, crc32.ChecksumIEEE(head[len(indexMagic):])) // covers version..section table

	var wrote int64
	put := func(b []byte) error {
		if len(b) == 0 {
			return nil
		}
		n, err := w.Write(b)
		wrote += int64(n)
		if err == nil && n < len(b) {
			err = io.ErrShortWrite // or wrote would stop being the file position
		}
		return err
	}
	if err := put(head); err != nil {
		return wrote, err
	}
	var zeros [sectionAlign]byte
	for i, p := range payloads {
		// Every put so far was accepted whole, so wrote is the file
		// position and the gap to the next section is under one alignment.
		if err := put(zeros[:layout.offs[i]-wrote]); err != nil {
			return wrote, err
		}
		if err := put(p); err != nil {
			return wrote, err
		}
	}
	if wrote != layout.end {
		return wrote, fmt.Errorf("slm: internal: wrote %d bytes, layout says %d", wrote, layout.end)
	}
	return wrote, nil
}

// cursor walks the header of an image. Every read is bounds-checked
// against the bytes that remain; the first that runs short — or the first
// count checkCount refuses — latches err, after which every read returns
// zero, so a decode is written straight-line and checked where it
// matters. Every length prefix is untrusted until a CRC verifies.
type cursor struct {
	image []byte
	pos   int
	err   error
}

// take returns the next n bytes, or nil once the cursor has failed.
func (c *cursor) take(n int) []byte {
	if c.err == nil && n > len(c.image)-c.pos {
		c.err = fmt.Errorf("slm: header runs past the %d bytes present: %w", len(c.image), io.ErrUnexpectedEOF)
	}
	if c.err != nil {
		return nil
	}
	b := c.image[c.pos : c.pos+n]
	c.pos += n
	return b
}

func (c *cursor) u8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) str() string {
	n := c.u32()
	c.checkCount(uint64(n), 1, maxStringLen, "string byte")
	return string(c.take(int(n)))
}

// checkCount validates a decoded length field before anything is
// allocated or sliced for it: n elements of elem wire bytes each must fit
// under the absolute cap and in the bytes that remain.
func (c *cursor) checkCount(n uint64, elem int64, limit uint64, what string) {
	if c.err != nil {
		return
	}
	rem := int64(len(c.image) - c.pos)
	switch {
	case n > limit:
		c.err = fmt.Errorf("slm: %s count %d implausible (cap %d)", what, n, limit)
	case int64(n) > rem/elem:
		c.err = fmt.Errorf("slm: %s count %d needs %d bytes but only %d remain (truncated or corrupt)",
			what, n, int64(n)*elem, rem)
	}
}

// params decodes the params block.
func (c *cursor) params() Params {
	var p Params
	p.Resolution = c.f64()
	p.FragmentTol.Value = c.f64()
	p.FragmentTol.Unit = mass.ToleranceUnit(c.u8())
	p.PrecursorTol.Value = c.f64()
	p.PrecursorTol.Unit = mass.ToleranceUnit(c.u8())
	p.MinSharedPeaks = int(c.u32())
	p.MaxQueryPeaks = int(c.u32())
	p.MaxFragmentMZ = c.f64()
	p.Mods.MaxPerPep = int(c.u32())
	p.Mods.MaxVariant = int(c.u32())
	nmods := c.u32()
	nseries := c.u32()
	c.checkCount(uint64(nmods), 16, maxModCount, "mod")
	c.checkCount(uint64(nseries), 1, maxSeriesCount, "ion series")
	for i := uint32(0); i < nseries && c.err == nil; i++ {
		p.IonSeries = append(p.IonSeries, spectrum.IonKind(c.u8()))
	}
	for i := uint32(0); i < nmods && c.err == nil; i++ {
		var m mods.Mod
		m.Name = c.str()
		m.Residues = c.str()
		m.Delta = c.f64()
		p.Mods.Mods = append(p.Mods.Mods, m)
	}
	return p
}

// validateShape runs the cross-array sanity checks every open ends with:
// monotone offsets from 0 to the posting count, each band's postings
// starting where the previous band's stop, in-range band-local postings,
// sane row precursors in ascending order, and every (band, bucket)
// posting list sorted. The windowed scan trusts all of these, so a
// corrupt file claiming them must be rejected here rather than silently
// dropping matches. readHeader has already matched the offsets count to
// the bands and buckets.
func (ix *Index) validateShape() error {
	for i := 1; i < len(ix.offsets); i++ {
		if ix.offsets[i] < ix.offsets[i-1] {
			return fmt.Errorf("slm: corrupt offsets at %d", i)
		}
	}
	if len(ix.offsets) == 0 && len(ix.ids) != 0 {
		return fmt.Errorf("slm: %d postings in an index without bands", len(ix.ids))
	}
	if len(ix.offsets) > 0 && (ix.offsets[0] != 0 || ix.offsets[len(ix.offsets)-1] != uint32(len(ix.ids))) {
		return fmt.Errorf("slm: offsets span [%d, %d], want [0, %d postings]",
			ix.offsets[0], ix.offsets[len(ix.offsets)-1], len(ix.ids))
	}
	nb1 := ix.numBuckets + 1
	for k := range ix.numBands() {
		off := ix.offsets[k*nb1 : (k+1)*nb1]
		if k > 0 && off[0] != ix.offsets[k*nb1-1] {
			return fmt.Errorf("slm: band %d postings start at %d, band %d's end at %d", k, off[0], k-1, ix.offsets[k*nb1-1])
		}
		size := min(ix.bandRows, len(ix.rows)-k*ix.bandRows)
		for b := range ix.numBuckets {
			list := ix.ids[off[b]:off[b+1]]
			for i, v := range list {
				if int(v) >= size {
					return fmt.Errorf("slm: band %d bucket %d posting references row %d of %d", k, b, v, size)
				}
				if i > 0 && v < list[i-1] {
					return fmt.Errorf("slm: band %d bucket %d posting list not sorted", k, b)
				}
			}
		}
	}
	for i, r := range ix.rows {
		if math.IsNaN(r.Precursor) || r.Precursor < 0 {
			return fmt.Errorf("slm: corrupt row precursor")
		}
		if i > 0 && r.Precursor < ix.rows[i-1].Precursor {
			return fmt.Errorf("slm: row precursors not ascending at %d", i)
		}
	}
	return nil
}

// sectionEntry is one decoded section-table record.
type sectionEntry struct {
	off   uint64
	count uint64
	crc   uint32
}

// fileHeader is the decoded header: everything before the first data
// section. The image it was read from is exactly as long as its section
// table implies (readHeader refuses any other).
type fileHeader struct {
	params     Params
	numBuckets uint32
	bandRows   uint32
	secs       [sectionTableEntries]sectionEntry // rows, offsets, ids
	headerLen  int64                             // magic through header CRC
}

// readHeader decodes and validates the header of the index image holds,
// which must be that index and nothing else. The magic and version are
// checked first, so a foreign or outdated file is refused before anything
// else is looked at. The header CRC is then verified and the section
// table checked against the canonical layout: ordered, 64-byte aligned,
// non-overlapping offsets derived from the header size, with counts under
// the absolute caps and within the bytes present. An image shorter than
// its layout is truncated; a longer one carries bytes no checksum covers;
// both are refused. All of this is O(header) — no section byte is touched — so a
// mapped open stays cheap.
func readHeader(image []byte) (*fileHeader, error) {
	c := &cursor{image: image}
	if magic := c.take(len(indexMagic)); c.err == nil && string(magic) != indexMagic {
		return nil, fmt.Errorf("slm: bad magic %q", magic)
	}
	if version := c.u32(); c.err == nil && version != indexVersion {
		hint := ""
		if version < indexVersion {
			hint = "; rebuild with `lbe-index -out`"
		}
		return nil, fmt.Errorf("slm: unsupported index version %d (want %d)%s", version, indexVersion, hint)
	}

	h := &fileHeader{params: c.params()}
	h.numBuckets = c.u32()
	h.bandRows = c.u32()
	for i := range h.secs {
		h.secs[i] = sectionEntry{off: c.u64(), count: c.u64(), crc: c.u32()}
	}
	crcEnd := c.pos
	got := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	if want := crc32.ChecksumIEEE(image[len(indexMagic):crcEnd]); got != want {
		return nil, fmt.Errorf("slm: header checksum mismatch: file %08x, computed %08x", got, want)
	}
	h.headerLen = int64(c.pos)

	rows, offs, ids := h.secs[0], h.secs[1], h.secs[2]
	c.checkCount(rows.count, rowWireBytes, maxRowCount, "row")
	c.checkCount(uint64(h.numBuckets), 4, maxBucketCount, "bucket")
	if c.err != nil {
		return nil, c.err
	}
	if h.bandRows < 1 || h.bandRows > maxBandRows {
		return nil, fmt.Errorf("slm: band of %d rows outside [1, %d]", h.bandRows, maxBandRows)
	}
	// Rows are capped at 2^28 and buckets at 2^30, so this cannot overflow.
	if bands := (rows.count + uint64(h.bandRows) - 1) / uint64(h.bandRows); offs.count != bands*(uint64(h.numBuckets)+1) {
		return nil, fmt.Errorf("slm: offsets length %d does not match %d bands of %d buckets", offs.count, bands, h.numBuckets)
	}
	c.checkCount(offs.count, 4, maxOffsetCount, "offset")
	c.checkCount(ids.count, postingWireBytes, maxPostingCount, "posting")
	if c.err != nil {
		return nil, c.err
	}
	var counts [sectionTableEntries]int64
	for i, s := range h.secs {
		counts[i] = int64(s.count)
	}
	layout := fileLayout(h.headerLen, counts)
	for i, s := range h.secs {
		if int64(s.off) != layout.offs[i] {
			return nil, fmt.Errorf("slm: section %d at offset %d, canonical layout says %d (overlapping, misordered or misaligned sections)",
				i, s.off, layout.offs[i])
		}
	}
	// No byte of a store file may escape the checksums, at either end.
	switch extra := int64(len(image)) - layout.end; {
	case extra < 0:
		return nil, fmt.Errorf("slm: sections end at byte %d but only %d are present (truncated or corrupt)",
			layout.end, len(image))
	case extra > 0:
		return nil, fmt.Errorf("slm: %d trailing bytes after the last section", extra)
	}
	return h, nil
}

// viewAs reinterprets an aligned little-endian section payload as its
// element array, without copying.
func viewAs[T any](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(*new(T))))
}

// decodeSection copy-decodes a section payload of elem-byte records one
// element at a time: the only way in on a big-endian host or from an
// unaligned buffer, where the payload cannot be aliased.
func decodeSection[T any](b []byte, elem int, get func(rec []byte) T) []T {
	if len(b) == 0 {
		return nil
	}
	out := make([]T, len(b)/elem)
	for i := range out {
		out[i] = get(b[i*elem:])
	}
	return out
}

// decodeRow decodes one 16-byte wire row record.
func decodeRow(rec []byte) Row {
	le := binary.LittleEndian
	return Row{
		Precursor: math.Float64frombits(le.Uint64(rec[0:8])),
		Peptide:   le.Uint32(rec[8:12]),
		NumIons:   le.Uint16(rec[12:14]),
		Flags:     le.Uint16(rec[14:16]),
	}
}

// indexFromImage builds the index h describes over image, the bytes
// readHeader parsed h from. On a little-endian host with every section
// 8-byte aligned in memory the three arrays alias image — no copy, no
// decoding; image must then outlive the index and never change — and
// aliased reports true. Otherwise each section is copy-decoded into a
// fresh array. No section byte is validated here: that is verify's job.
func indexFromImage(h *fileHeader, image []byte) (ix *Index, aliased bool) {
	var secs [sectionTableEntries][]byte
	aliased = isLittleEndian
	for i, e := range h.secs {
		secs[i] = image[e.off : int64(e.off)+sectionElemBytes[i]*int64(e.count)]
		if len(secs[i]) > 0 && uintptr(unsafe.Pointer(&secs[i][0]))%8 != 0 {
			aliased = false
		}
	}
	ix = &Index{params: h.params, numBuckets: int(h.numBuckets), bandRows: int(h.bandRows)}
	if aliased {
		ix.rows = viewAs[Row](secs[0])
		ix.offsets = viewAs[uint32](secs[1])
		ix.ids = viewAs[uint16](secs[2])
	} else {
		le := binary.LittleEndian
		ix.rows = decodeSection(secs[0], rowWireBytes, decodeRow)
		ix.offsets = decodeSection(secs[1], 4, le.Uint32)
		ix.ids = decodeSection(secs[2], postingWireBytes, le.Uint16)
	}
	ix.buildPeak = ix.MemoryBytes()
	return ix, aliased
}

// verify is the content half of every open: one sequential pass over
// image checking each section's CRC and requiring the alignment padding
// between sections — the one region no CRC covers — to be zero, so any
// flipped byte of the image is detected, then the cross-array shape.
func (ix *Index) verify(h *fileHeader, image []byte) error {
	end := h.headerLen // end of the previously verified region
	for i, e := range h.secs {
		lo := int64(e.off)
		for _, v := range image[end:lo] {
			if v != 0 {
				return errors.New("slm: nonzero section padding")
			}
		}
		end = lo + sectionElemBytes[i]*int64(e.count)
		if crc := crc32.ChecksumIEEE(image[lo:end]); crc != e.crc {
			return fmt.Errorf("slm: section %d checksum mismatch: file %08x, computed %08x", i, e.crc, crc)
		}
	}
	return ix.validateShape()
}

// DecodeIndex deserializes an index from the complete bytes of a store
// file — the index and nothing after it — verifying every checksum and
// the format version; files written by an older format version are
// refused with a hint to rebuild them. Where the host allows it the
// returned index aliases image instead of copying it, so the caller must
// not modify image afterwards.
func DecodeIndex(image []byte) (*Index, error) {
	h, err := readHeader(image)
	if err != nil {
		return nil, err
	}
	ix, _ := indexFromImage(h, image)
	if err := ix.verify(h, image); err != nil {
		return nil, err
	}
	return ix, nil
}

// SaveFile writes the index to the named file.
func (ix *Index) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads an index from the named file, which must hold nothing
// else.
func LoadFile(path string) (*Index, error) {
	image, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := DecodeIndex(image)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}
