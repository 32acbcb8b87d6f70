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
// An index is its image: one 8-byte-aligned []byte in exactly this
// layout, whose three sections rows, offsets and ids view in place. A
// built, a decoded and a mapped index differ only in where that buffer
// came from. Build lays the header out with newImage, takes the views
// through indexFromImage, writes pass 2 into them and seals the CRCs
// once (seal); WriteTo is one write of the image. Every open
// — DecodeIndex, LoadFile, OpenIndexMapped — is three steps over the
// complete image, heap buffer or memory mapping alike: readHeader parses
// and CRC-checks the header, pins the section table to the canonical
// layout and refuses an image longer or shorter than it; indexFromImage
// takes the same views Build does; verify checks the section CRCs, the
// zero padding and the cross-array shape, all before the open returns.
// The views are the wire layout only on a little-endian host, so a
// big-endian host is refused by Build and by every open
// (checkByteOrder); a DecodeIndex input that does not start 8-byte
// aligned is copied once into one that does.
//
// Counts come from the (not yet checksum-verified) input, so the reader
// treats them as hostile: each is bounded by an absolute cap AND by the
// bytes actually present — the image's size is a fact, never a claim — so
// an open allocates O(header), plus one copy of the image when DecodeIndex
// has to align it.

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

// checkByteOrder refuses a host whose byte order is not the SLMX wire
// order: an index's arrays are views of its little-endian image, so only
// a little-endian host can build, open or search one. Build and every
// open call it with binary.NativeEndian.
func checkByteOrder(order binary.ByteOrder) error {
	if order.Uint16([]byte{1, 0}) != 1 {
		return errors.New("slm: SLMX indexes are little-endian images; a big-endian host cannot build or open one")
	}
	return nil
}

// alignedBytes returns n zero bytes that start 8-byte aligned, as the
// views of an image need.
func alignedBytes(n int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(make([]uint64, (n+7)/8)))), n)
}

// isAligned reports whether b starts 8-byte aligned.
func isAligned(b []byte) bool { return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 }

// sectionElemBytes[i] is the wire size of one element of section i:
// rows, offsets, ids.
var sectionElemBytes = [sectionTableEntries]int64{rowWireBytes, 4, postingWireBytes}

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
// so build can never lay out an image readHeader refuses (or, past
// uint32, silently truncates). Params.Validate, which build runs first,
// already holds the ion series under their cap.
func checkEncodable(p Params, numBuckets int, counts [sectionTableEntries]int64) error {
	if counts[0] > maxRowCount {
		return fmt.Errorf("slm: %d rows exceed the serializable cap %d", counts[0], maxRowCount)
	}
	if numBuckets > maxBucketCount {
		return fmt.Errorf("slm: %d buckets exceed the serializable cap %d", numBuckets, maxBucketCount)
	}
	if counts[1] > maxOffsetCount {
		return fmt.Errorf("slm: %d offsets exceed the serializable cap %d", counts[1], maxOffsetCount)
	}
	if counts[2] > maxPostingCount {
		return fmt.Errorf("slm: %d postings exceed the serializable cap %d", counts[2], maxPostingCount)
	}
	if len(p.Mods.Mods) > maxModCount {
		return fmt.Errorf("slm: %d mods exceed the serializable cap %d", len(p.Mods.Mods), maxModCount)
	}
	for _, m := range p.Mods.Mods {
		if len(m.Name) > maxStringLen || len(m.Residues) > maxStringLen {
			return fmt.Errorf("slm: mod %q has a string over the serializable cap %d", m.Name, maxStringLen)
		}
	}
	return nil
}

// alignUp rounds n up to the next multiple of sectionAlign.
func alignUp(n int64) int64 {
	return (n + sectionAlign - 1) &^ (sectionAlign - 1)
}

// fileLayout derives the canonical section offsets for an index whose
// header (magic through header CRC) spans headerLen bytes and whose
// sections hold counts[i] elements each, and the image size they imply.
func fileLayout(headerLen int64, counts [sectionTableEntries]int64) (offs [sectionTableEntries]int64, end int64) {
	end = headerLen
	for i := range counts {
		end = alignUp(end)
		offs[i] = end
		end += sectionElemBytes[i] * counts[i]
	}
	return offs, end
}

// section returns section i of image: the bytes h's table places there.
func (h *fileHeader) section(image []byte, i int) []byte {
	e := h.secs[i]
	return image[e.off : int64(e.off)+sectionElemBytes[i]*int64(e.count)]
}

// newImage lays out the image of an index with counts[i] elements in
// section i: a zeroed, 8-byte-aligned buffer of the canonical size
// holding the header up to its section table, and the header that
// describes it. The sections, their CRCs and the header CRC are the
// builder's to fill in; seal writes the last two.
func newImage(p Params, numBuckets, bandRows int, counts [sectionTableEntries]int64) ([]byte, *fileHeader) {
	le := binary.LittleEndian
	head := le.AppendUint32([]byte(indexMagic), indexVersion)
	head = appendParams(head, p)
	head = le.AppendUint32(head, uint32(numBuckets))
	head = le.AppendUint32(head, uint32(bandRows))
	h := &fileHeader{params: p, numBuckets: uint32(numBuckets), bandRows: uint32(bandRows),
		headerLen: int64(len(head)) + sectionTableEntries*sectionEntryBytes + 4}
	offs, end := fileLayout(h.headerLen, counts)
	for i := range h.secs {
		h.secs[i] = sectionEntry{off: uint64(offs[i]), count: uint64(counts[i])}
	}
	image := alignedBytes(end)
	copy(image, head)
	return image, h
}

// seal finishes an image newImage laid out once its sections are
// written: it checksums each section into the section table, then the
// header into the header CRC.
func seal(h *fileHeader, image []byte) {
	le := binary.LittleEndian
	// Appends write in place: the section table and header CRC fit in
	// image's capacity right where newImage stopped.
	b := image[:h.headerLen-sectionTableEntries*sectionEntryBytes-4]
	for i, e := range h.secs {
		b = le.AppendUint64(b, e.off)
		b = le.AppendUint64(b, e.count)
		b = le.AppendUint32(b, crc32.ChecksumIEEE(h.section(image, i)))
	}
	le.AppendUint32(b, crc32.ChecksumIEEE(b[len(indexMagic):])) // covers version..section table
}

// WriteTo writes the index's image: the SLMX file. It implements
// io.WriterTo: on error it returns the number of bytes the underlying
// writer actually accepted before the failure, not zero.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	if ix.closed {
		return 0, errClosed
	}
	n, err := w.Write(ix.image)
	if err == nil && n < len(ix.image) {
		err = io.ErrShortWrite
	}
	return int64(n), err
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
// every row holding exactly Row.NumIons postings, sane row precursors in
// ascending order, and every (band, bucket) posting list sorted. The
// windowed scan trusts all of these — the row view lays rows out at
// NumIons prefix sums, and hyperscore scores a row by its NumIons — so a
// corrupt file claiming them must be rejected here rather than silently
// dropping or misscoring matches. readHeader has already matched the
// offsets count to the bands and buckets.
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
	var perRow []uint32 // one band's postings per row
	if len(ix.rows) > 0 {
		perRow = make([]uint32, ix.bandRows)
	}
	for k := 1; k < ix.numBands(); k++ {
		if start, prev := ix.offsets[k*nb1], ix.offsets[k*nb1-1]; start != prev {
			return fmt.Errorf("slm: band %d postings start at %d, band %d's end at %d", k, start, k-1, prev)
		}
	}
	for k := range ix.numBands() {
		off := ix.offsets[k*nb1 : (k+1)*nb1]
		base := k * ix.bandRows
		size := min(ix.bandRows, len(ix.rows)-base)
		counts := perRow[:size]
		clear(counts)
		for b := range ix.numBuckets {
			list := ix.ids[off[b]:off[b+1]]
			for i, v := range list {
				if int(v) >= size {
					return fmt.Errorf("slm: band %d bucket %d posting references row %d of %d", k, b, v, size)
				}
				if i > 0 && v < list[i-1] {
					return fmt.Errorf("slm: band %d bucket %d posting list not sorted", k, b)
				}
				counts[v]++
			}
		}
		for i, c := range counts {
			if n := ix.rows[base+i].NumIons; c != uint32(n) {
				return fmt.Errorf("slm: row %d holds %d postings but claims NumIons %d", base+i, c, n)
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
	canon, end := fileLayout(h.headerLen, counts)
	for i, s := range h.secs {
		if int64(s.off) != canon[i] {
			return nil, fmt.Errorf("slm: section %d at offset %d, canonical layout says %d (overlapping, misordered or misaligned sections)",
				i, s.off, canon[i])
		}
	}
	// No byte of a store file may escape the checksums, at either end.
	switch extra := int64(len(image)) - end; {
	case extra < 0:
		return nil, fmt.Errorf("slm: sections end at byte %d but only %d are present (truncated or corrupt)",
			end, len(image))
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

// indexFromImage returns the index h describes over image — the bytes
// readHeader parsed h from, or newImage laid out for it. Its three arrays
// are views of image's sections, so image must outlive the index and
// change under it only while a build writes it. image must start 8-byte
// aligned; sections start 64-byte aligned within it. No section byte is
// read here: that is verify's job.
func indexFromImage(h *fileHeader, image []byte) (*Index, error) {
	if err := checkByteOrder(binary.NativeEndian); err != nil {
		return nil, err
	}
	if !isAligned(image) {
		return nil, errors.New("slm: index image is not 8-byte aligned")
	}
	ix := &Index{
		params:     h.params,
		image:      image,
		rows:       viewAs[Row](h.section(image, 0)),
		offsets:    viewAs[uint32](h.section(image, 1)),
		ids:        viewAs[uint16](h.section(image, 2)),
		numBuckets: int(h.numBuckets),
		bandRows:   int(h.bandRows),
	}
	ix.buildPeak = ix.MemoryBytes()
	return ix, nil
}

// verify is the content half of every open: one sequential pass over
// the image h was read from, checking each section's CRC and requiring
// the alignment padding between sections — the one region no CRC covers
// — to be zero, so any flipped byte of the image is detected, then the
// cross-array shape. It then builds the prefix row (Index.cum) from the
// verified offsets, so every open index that passed it has one.
func (ix *Index) verify(h *fileHeader) error {
	image := ix.image
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
	if err := ix.validateShape(); err != nil {
		return err
	}
	ix.cum = ix.prefixRow()
	return nil
}

// DecodeIndex deserializes an index from the complete bytes of a store
// file — the index and nothing after it — verifying every checksum and
// the format version; files written by an older format version are
// refused with a hint to rebuild them. The returned index is a view of
// image, so the caller must not modify image afterwards; an image that
// does not start 8-byte aligned is copied once into one that does.
func DecodeIndex(image []byte) (*Index, error) {
	h, err := readHeader(image)
	if err != nil {
		return nil, err
	}
	if !isAligned(image) {
		aligned := alignedBytes(int64(len(image)))
		copy(aligned, image)
		image = aligned
	}
	ix, err := indexFromImage(h, image)
	if err != nil {
		return nil, err
	}
	if err := ix.verify(h); err != nil {
		return nil, err
	}
	return ix, nil
}

// SaveFile writes the index's image to the named file.
func (ix *Index) SaveFile(path string) error {
	if ix.closed {
		return errClosed
	}
	return os.WriteFile(path, ix.image, 0o666)
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
