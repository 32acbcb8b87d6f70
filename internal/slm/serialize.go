package slm

import (
	"bufio"
	"bytes"
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
// Layout (little-endian), version 3 — the only version read or written:
//
//	magic "SLMX" | version u32 | params block | numBuckets u32 |
//	section table (5 × {offset u64, count u64, crc32 u32}) | header crc32 |
//	padding | rows | padding | offsets | padding | ids |
//	padding | perm | padding | precs
//
// The header CRC covers everything between the magic and itself. Each
// data section starts at a 64-byte-aligned file offset recorded in the
// table, holds count fixed-size records (rows are the in-memory 16-byte
// Row layout; offsets, ids and perm are u32; precs is f64), and carries
// its own CRC. Section offsets are canonical — derivable from the header
// size alone — so a stream reader needs no seeking and a table naming
// overlapping, misordered or misaligned sections is rejected outright.
// ids postings hold mass-sorted row positions (each bucket ascending),
// perm maps sorted position → row id, and precs is the ascending
// precursor column the windowed scan binary searches.
//
// Every open — ReadIndex, LoadFile, DecodeIndex, OpenIndexMapped — is the
// same three steps over one byte image of the file: readHeader parses and
// CRC-checks the header and pins the section table to the canonical
// layout, indexFromImage takes the five section views (the fixed aligned
// layout is what lets them alias the image, heap buffer or memory mapping
// alike, with no per-element decoding), and verify checks the section
// CRCs, the zero padding and the cross-array shape. Only the mapped open
// defers verify (see OpenIndexMapped).
//
// Counts come from the (not yet checksum-verified) input, so the reader
// treats them as hostile: each is bounded by an absolute cap AND, when
// the input's size is knowable (regular files, in-memory readers), by the
// bytes actually present. On sized input the image is then allocated
// exactly and filled with one read; on an opaque stream it grows in
// doubling chunks as bytes actually arrive, so the decoder never
// allocates more than a small multiple of the bytes it has consumed.

const (
	indexMagic   = "SLMX"
	indexVersion = 3

	// Wire sizes of the variable-length record types.
	rowWireBytes     = rowMemBytes // the in-memory Row layout
	postingWireBytes = 4

	// sectionAlign is the file-offset alignment of every data section:
	// a cache line, and a divisor of the page size, so a page-aligned
	// mapping yields aligned (and cache-line-friendly) array views.
	sectionAlign = 64

	// sectionTableEntries and sectionEntryBytes fix the table shape: rows,
	// offsets, ids, perm, precs — each {offset u64, count u64, crc32 u32}.
	sectionTableEntries = 5
	sectionEntryBytes   = 8 + 8 + 4

	// Absolute sanity caps on count fields, enforced before any
	// allocation. They bound a single shard file at sizes far beyond the
	// paper's full 49.45M-spectra run while keeping the worst-case
	// allocation from a corrupt count on an unsized stream in check.
	maxStringLen    = 1 << 20
	maxModCount     = 1 << 16
	maxSeriesCount  = 16
	maxRowCount     = 1 << 28
	maxBucketCount  = 1 << 30
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
// rows, offsets, ids, perm, precs.
var sectionElemBytes = [sectionTableEntries]int64{rowWireBytes, 4, 4, 4, 8}

// countWriter counts the bytes the underlying writer actually accepted,
// so WriteTo can report a faithful running total on mid-stream errors.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	cw.n += int64(n)
	return n, err
}

type crcReader struct {
	r   io.Reader
	crc uint32
	n   int64
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	cr.n += int64(n)
	return n, err
}

// indexEncoder writes the fixed-layout wire fields with a sticky error,
// avoiding reflection-based binary.Write in the hot per-row loop. The
// byte layout is identical to encoding each field with binary.Write.
type indexEncoder struct {
	cw  *crcWriter
	err error
}

func (e *indexEncoder) write(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.cw.Write(b)
}

func (e *indexEncoder) u8(v uint8) { e.write([]byte{v}) }

func (e *indexEncoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.write(b[:])
}

func (e *indexEncoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.write(b[:])
}

func (e *indexEncoder) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	e.write(b[:])
}

func (e *indexEncoder) str(s string) {
	e.u32(uint32(len(s)))
	if e.err == nil {
		_, e.err = io.WriteString(e.cw, s)
	}
}

// rows encodes the row records in the 16-byte wire layout through a
// reusable fixed buffer; on little-endian hosts the records are the
// in-memory bytes and are written directly.
func (e *indexEncoder) rows(rows []Row) {
	if isLittleEndian {
		e.write(bytesOf(rows))
		return
	}
	var b [rowWireBytes]byte
	le := binary.LittleEndian
	for i := range rows {
		if e.err != nil {
			return
		}
		r := &rows[i]
		le.PutUint64(b[0:8], math.Float64bits(r.Precursor))
		le.PutUint32(b[8:12], r.Peptide)
		le.PutUint16(b[12:14], r.NumIons)
		le.PutUint16(b[14:16], r.Flags)
		e.write(b[:])
	}
}

// u32s encodes a uint32 slice; bulk on little-endian hosts, otherwise in
// fixed-size chunks.
func (e *indexEncoder) u32s(vs []uint32) {
	if isLittleEndian {
		e.write(bytesOf(vs))
		return
	}
	var b [4 << 10]byte
	le := binary.LittleEndian
	for len(vs) > 0 && e.err == nil {
		n := min(len(vs), len(b)/4)
		for i := 0; i < n; i++ {
			le.PutUint32(b[4*i:], vs[i])
		}
		e.write(b[:4*n])
		vs = vs[n:]
	}
}

// f64s encodes a float64 slice; bulk on little-endian hosts, otherwise in
// fixed-size chunks.
func (e *indexEncoder) f64s(vs []float64) {
	if isLittleEndian {
		e.write(bytesOf(vs))
		return
	}
	var b [4 << 10]byte
	le := binary.LittleEndian
	for len(vs) > 0 && e.err == nil {
		n := min(len(vs), len(b)/8)
		for i := 0; i < n; i++ {
			le.PutUint64(b[8*i:], math.Float64bits(vs[i]))
		}
		e.write(b[:8*n])
		vs = vs[n:]
	}
}

// pad writes n zero bytes.
func (e *indexEncoder) pad(n int64) {
	var zeros [sectionAlign]byte
	for n > 0 && e.err == nil {
		take := min(n, int64(len(zeros)))
		e.write(zeros[:take])
		n -= take
	}
}

// params encodes the params block.
func (e *indexEncoder) params(p Params) {
	e.f64(p.Resolution)
	e.f64(p.FragmentTol.Value)
	e.u8(uint8(p.FragmentTol.Unit))
	e.f64(p.PrecursorTol.Value)
	e.u8(uint8(p.PrecursorTol.Unit))
	e.u32(uint32(p.MinSharedPeaks))
	e.u32(uint32(p.MaxQueryPeaks))
	e.f64(p.MaxFragmentMZ)
	e.u32(uint32(p.Mods.MaxPerPep))
	e.u32(uint32(p.Mods.MaxVariant))
	e.u32(uint32(len(p.Mods.Mods)))
	e.u32(uint32(len(p.IonSeries)))
	for _, k := range p.IonSeries {
		e.u8(uint8(k))
	}
	for _, m := range p.Mods.Mods {
		e.str(m.Name)
		e.str(m.Residues)
		e.f64(m.Delta)
	}
}

// checkEncodable rejects an index whose counts exceed the decoder caps,
// so WriteTo can never persist a stream ReadIndex refuses (or, past
// uint32, silently truncates).
func (ix *Index) checkEncodable() error {
	if len(ix.rows) > maxRowCount {
		return fmt.Errorf("slm: %d rows exceed the serializable cap %d", len(ix.rows), maxRowCount)
	}
	if ix.numBuckets > maxBucketCount || len(ix.offsets) > maxBucketCount+1 {
		return fmt.Errorf("slm: %d buckets exceed the serializable cap %d", ix.numBuckets, maxBucketCount)
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

// paramsBlockLen returns the encoded byte length of the params block.
func paramsBlockLen(p Params) int64 {
	n := int64(8 + 8 + 1 + 8 + 1 + 4 + 4 + 8 + 4 + 4 + 4 + 4)
	n += int64(len(p.IonSeries))
	for _, m := range p.Mods.Mods {
		n += 4 + int64(len(m.Name)) + 4 + int64(len(m.Residues)) + 8
	}
	return n
}

// sectionCRC computes the CRC an encoder pass produces for one section's
// payload without retaining it: the section is streamed into a discard
// writer through the same encoder used for the real write.
func sectionCRC(fill func(e *indexEncoder)) (uint32, error) {
	cw := &crcWriter{w: io.Discard}
	e := &indexEncoder{cw: cw}
	fill(e)
	return cw.crc, e.err
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
	fills := [sectionTableEntries]func(e *indexEncoder){
		func(e *indexEncoder) { e.rows(ix.rows) },
		func(e *indexEncoder) { e.u32s(ix.offsets) },
		func(e *indexEncoder) { e.u32s(ix.ids) },
		func(e *indexEncoder) { e.u32s(ix.perm) },
		func(e *indexEncoder) { e.f64s(ix.precs) },
	}
	counts := [sectionTableEntries]int64{
		int64(len(ix.rows)), int64(len(ix.offsets)), int64(len(ix.ids)),
		int64(len(ix.perm)), int64(len(ix.precs)),
	}
	headerLen := int64(len(indexMagic)) + 4 + paramsBlockLen(ix.params) + 4 +
		sectionTableEntries*sectionEntryBytes + 4
	layout := fileLayout(headerLen, counts)

	// Pass 1: per-section CRCs (streamed, nothing buffered).
	var crcs [sectionTableEntries]uint32
	for i := range fills {
		crc, err := sectionCRC(fills[i])
		if err != nil {
			return 0, err
		}
		crcs[i] = crc
	}

	// Pass 2: the actual write.
	bot := &countWriter{w: w}
	bw := bufio.NewWriter(bot)
	if _, err := bw.WriteString(indexMagic); err != nil {
		bw.Flush()
		return bot.n, err
	}
	cw := &crcWriter{w: bw}
	e := &indexEncoder{cw: cw}

	e.u32(indexVersion)
	e.params(ix.params)
	e.u32(uint32(ix.numBuckets))
	for i := range fills {
		e.u64(uint64(layout.offs[i]))
		e.u64(uint64(counts[i]))
		e.u32(crcs[i])
	}
	e.u32(cw.crc) // header CRC: covers version..section table

	pos := func() int64 { return int64(len(indexMagic)) + cw.n }
	for i := range fills {
		e.pad(layout.offs[i] - pos())
		fills[i](e)
	}
	if e.err != nil {
		bw.Flush()
		return bot.n, e.err
	}
	if err := bw.Flush(); err != nil {
		return bot.n, err
	}
	if got := pos(); got != layout.end {
		return bot.n, fmt.Errorf("slm: internal: wrote %d bytes, layout says %d", got, layout.end)
	}
	return bot.n, nil
}

// inputSize reports how many unread bytes r holds when that is knowable —
// regular files and in-memory readers (bytes.Reader, bytes.Buffer,
// strings.Reader) — or -1 for opaque streams.
func inputSize(r io.Reader) int64 {
	switch v := r.(type) {
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		if rem := fi.Size() - cur; rem >= 0 {
			return rem
		}
		return 0
	case interface{ Len() int }:
		return int64(v.Len())
	}
	return -1
}

// indexDecoder reads the wire fields, treating every length prefix as
// untrusted until a CRC verifies.
type indexDecoder struct {
	cr *crcReader
	// payload is the decoder's byte budget — the input size minus the
	// magic — or -1 when the size is unknown.
	payload int64
}

// remaining returns the unread payload budget, or -1 when unknown.
func (d *indexDecoder) remaining() int64 {
	if d.payload < 0 {
		return -1
	}
	if rem := d.payload - d.cr.n; rem > 0 {
		return rem
	}
	return 0
}

// checkCount validates a decoded length field before anything is
// allocated for it: n elements of elem wire bytes each must fit under the
// absolute cap and, when the input size is known, in the bytes present.
func (d *indexDecoder) checkCount(n uint64, elem int64, limit uint64, what string) error {
	if n > limit {
		return fmt.Errorf("slm: %s count %d implausible (cap %d)", what, n, limit)
	}
	if rem := d.remaining(); rem >= 0 && int64(n) > rem/elem {
		return fmt.Errorf("slm: %s count %d needs %d bytes but only %d remain (truncated or corrupt)",
			what, n, int64(n)*elem, rem)
	}
	return nil
}

func (d *indexDecoder) full(b []byte) error {
	_, err := io.ReadFull(d.cr, b)
	return err
}

func (d *indexDecoder) u8() (uint8, error) {
	var b [1]byte
	err := d.full(b[:])
	return b[0], err
}

func (d *indexDecoder) u32() (uint32, error) {
	var b [4]byte
	err := d.full(b[:])
	return binary.LittleEndian.Uint32(b[:]), err
}

func (d *indexDecoder) u64() (uint64, error) {
	var b [8]byte
	err := d.full(b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}

func (d *indexDecoder) f64() (float64, error) {
	var b [8]byte
	err := d.full(b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), err
}

func (d *indexDecoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if err := d.checkCount(uint64(n), 1, maxStringLen, "string byte"); err != nil {
		return "", err
	}
	// Same discipline as readImage: on an unsized stream, a forged
	// length only grows the buffer as bytes actually arrive.
	const chunk = 4096
	var tmp [chunk]byte
	b := make([]byte, 0, min(int(n), chunk))
	for len(b) < int(n) {
		take := min(int(n)-len(b), chunk)
		if err := d.full(tmp[:take]); err != nil {
			return "", err
		}
		b = append(b, tmp[:take]...)
	}
	return string(b), nil
}

// readParams decodes the params block.
func (d *indexDecoder) readParams(p *Params) error {
	var fail error
	get := func(dst *float64) {
		if fail == nil {
			*dst, fail = d.f64()
		}
	}
	getU32 := func() uint32 {
		var v uint32
		if fail == nil {
			v, fail = d.u32()
		}
		return v
	}
	getU8 := func() uint8 {
		var v uint8
		if fail == nil {
			v, fail = d.u8()
		}
		return v
	}

	get(&p.Resolution)
	get(&p.FragmentTol.Value)
	p.FragmentTol.Unit = mass.ToleranceUnit(getU8())
	get(&p.PrecursorTol.Value)
	p.PrecursorTol.Unit = mass.ToleranceUnit(getU8())
	p.MinSharedPeaks = int(getU32())
	p.MaxQueryPeaks = int(getU32())
	get(&p.MaxFragmentMZ)
	p.Mods.MaxPerPep = int(getU32())
	p.Mods.MaxVariant = int(getU32())
	nmods := getU32()
	nseries := getU32()
	if fail != nil {
		return fail
	}
	if err := d.checkCount(uint64(nmods), 16, maxModCount, "mod"); err != nil {
		return err
	}
	if err := d.checkCount(uint64(nseries), 1, maxSeriesCount, "ion series"); err != nil {
		return err
	}
	for i := uint32(0); i < nseries; i++ {
		k, err := d.u8()
		if err != nil {
			return err
		}
		p.IonSeries = append(p.IonSeries, spectrum.IonKind(k))
	}
	for i := uint32(0); i < nmods; i++ {
		var m mods.Mod
		var err error
		if m.Name, err = d.str(); err != nil {
			return err
		}
		if m.Residues, err = d.str(); err != nil {
			return err
		}
		if m.Delta, err = d.f64(); err != nil {
			return err
		}
		p.Mods.Mods = append(p.Mods.Mods, m)
	}
	return nil
}

// validateShape runs the cross-array sanity checks every open ends with:
// monotone offsets ending at the posting count, in-range postings, sane
// row precursors, and the precursor-order invariants — perm a true
// permutation, precs ascending and agreeing with the rows, every bucket's
// posting list sorted. The windowed scan trusts all of these, so a
// corrupt file claiming them must be rejected here rather than silently
// dropping matches.
func (ix *Index) validateShape() error {
	for i := 1; i < len(ix.offsets); i++ {
		if ix.offsets[i] < ix.offsets[i-1] {
			return fmt.Errorf("slm: corrupt offsets at %d", i)
		}
	}
	if len(ix.offsets) > 0 && ix.offsets[len(ix.offsets)-1] != uint32(len(ix.ids)) {
		return fmt.Errorf("slm: offsets end %d != %d postings", ix.offsets[len(ix.offsets)-1], len(ix.ids))
	}
	for i, v := range ix.ids {
		if v >= uint32(len(ix.rows)) {
			return fmt.Errorf("slm: posting %d references row %d of %d", i, v, len(ix.rows))
		}
	}
	for _, r := range ix.rows {
		if math.IsNaN(r.Precursor) || r.Precursor < 0 {
			return fmt.Errorf("slm: corrupt row precursor")
		}
	}
	if len(ix.perm) != len(ix.rows) || len(ix.precs) != len(ix.rows) {
		return fmt.Errorf("slm: precursor-order columns of %d/%d entries do not match %d rows",
			len(ix.perm), len(ix.precs), len(ix.rows))
	}
	seen := make([]bool, len(ix.perm))
	for s, o := range ix.perm {
		if int(o) >= len(seen) || seen[o] {
			return fmt.Errorf("slm: perm is not a permutation at %d", s)
		}
		seen[o] = true
		if ix.rows[o].Precursor != ix.precs[s] {
			return fmt.Errorf("slm: precursor column disagrees with row %d", o)
		}
	}
	for i := 1; i < len(ix.precs); i++ {
		if ix.precs[i] < ix.precs[i-1] {
			return fmt.Errorf("slm: precursor column not monotone at %d", i)
		}
	}
	for b := 0; b < ix.numBuckets; b++ {
		for i := ix.offsets[b] + 1; i < ix.offsets[b+1]; i++ {
			if ix.ids[i] < ix.ids[i-1] {
				return fmt.Errorf("slm: bucket %d posting list not sorted", b)
			}
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
// section, plus the file size its section table implies.
type fileHeader struct {
	params     Params
	numBuckets uint32
	secs       [sectionTableEntries]sectionEntry // rows, offsets, ids, perm, precs
	headerLen  int64                             // magic through header CRC
	end        int64                             // end of the last section: the canonical file size
}

// readHeader decodes and validates the header of an index from r, whose
// unread size is size bytes (-1 when unknown). The magic and version are
// checked first, so a foreign or outdated file is refused before anything
// else is read. The header CRC is then verified and the section table
// checked against the canonical layout: ordered, 64-byte aligned,
// non-overlapping offsets derived from the header size, with counts under
// the absolute caps (and the input size when known), perm and precs
// holding exactly one entry per row. All of this is O(header) — no
// section byte is touched — so a mapped open stays cheap.
func readHeader(r io.Reader, size int64) (*fileHeader, error) {
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("slm: reading magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("slm: bad magic %q", magic)
	}
	d := &indexDecoder{cr: &crcReader{r: r}, payload: -1}
	if size >= 0 {
		d.payload = size - int64(len(indexMagic))
	}
	version, err := d.u32()
	if err != nil {
		return nil, err
	}
	if version != indexVersion {
		hint := ""
		if version < indexVersion {
			hint = "; rebuild with `lbe-index -out`"
		}
		return nil, fmt.Errorf("slm: unsupported index version %d (want %d)%s", version, indexVersion, hint)
	}

	h := &fileHeader{}
	if err := d.readParams(&h.params); err != nil {
		return nil, err
	}
	var fail error
	if h.numBuckets, fail = d.u32(); fail != nil {
		return nil, fail
	}
	for i := range h.secs {
		s := &h.secs[i]
		if s.off, fail = d.u64(); fail != nil {
			return nil, fail
		}
		if s.count, fail = d.u64(); fail != nil {
			return nil, fail
		}
		if s.crc, fail = d.u32(); fail != nil {
			return nil, fail
		}
	}
	want := d.cr.crc
	got, err := d.u32()
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("slm: header checksum mismatch: file %08x, computed %08x", got, want)
	}
	h.headerLen = int64(len(indexMagic)) + d.cr.n

	rows, offs, ids, perm, precs := h.secs[0], h.secs[1], h.secs[2], h.secs[3], h.secs[4]
	if err := d.checkCount(rows.count, rowWireBytes, maxRowCount, "row"); err != nil {
		return nil, err
	}
	if err := d.checkCount(uint64(h.numBuckets), 4, maxBucketCount, "bucket"); err != nil {
		return nil, err
	}
	if offs.count != uint64(h.numBuckets)+1 && !(h.numBuckets == 0 && offs.count <= 1) {
		return nil, fmt.Errorf("slm: offsets length %d does not match %d buckets", offs.count, h.numBuckets)
	}
	if err := d.checkCount(offs.count, 4, maxBucketCount+1, "offset"); err != nil {
		return nil, err
	}
	if err := d.checkCount(ids.count, postingWireBytes, maxPostingCount, "posting"); err != nil {
		return nil, err
	}
	if perm.count != rows.count || precs.count != rows.count {
		return nil, fmt.Errorf("slm: precursor-order sections of %d/%d entries do not match %d rows",
			perm.count, precs.count, rows.count)
	}
	if err := d.checkCount(perm.count, 4, maxRowCount, "perm"); err != nil {
		return nil, err
	}
	if err := d.checkCount(precs.count, 8, maxRowCount, "precursor"); err != nil {
		return nil, err
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
	if rem := d.remaining(); rem >= 0 && layout.end-h.headerLen > rem {
		return nil, fmt.Errorf("slm: sections need %d bytes but only %d remain (truncated or corrupt)",
			layout.end-h.headerLen, rem)
	}
	h.end = layout.end
	return h, nil
}

// alignedBytes returns n zeroed bytes starting at an 8-byte-aligned
// address — the strictest alignment a section's element type needs — so
// indexFromImage can alias an image read into them.
func alignedBytes(n int64) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// readImage completes the byte image of the index whose header bytes
// (magic through header CRC) are head, reading exactly end-len(head) more
// bytes from r. When the input size is known readHeader has already
// proven those bytes present, so the image is allocated once; on an
// opaque stream end is still an unproven claim, so the image starts small
// and doubles only as bytes actually arrive — a forged count stalls at
// the first short read instead of provoking one huge allocation.
func readImage(r io.Reader, head []byte, end int64, sized bool) ([]byte, error) {
	n := end
	if !sized {
		n = min(end, max(2*int64(len(head)), 64<<10))
	}
	image := alignedBytes(n)
	got := copy(image, head)
	for {
		if _, err := io.ReadFull(r, image[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("slm: reading sections: %w", err)
		}
		got = len(image)
		if int64(got) == end {
			return image, nil
		}
		grown := alignedBytes(min(end, 2*int64(got)))
		copy(grown, image)
		image = grown
	}
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

// indexFromImage builds the index h describes over image, which must hold
// at least h.end bytes (readHeader proves this for sized input). On a
// little-endian host with every section 8-byte aligned in memory the five
// arrays alias image — no copy, no decoding; image must then outlive the
// index and never change — and aliased reports true. Otherwise each
// section is copy-decoded into a fresh array. No section byte is
// validated here: that is verify's job.
func indexFromImage(h *fileHeader, image []byte) (ix *Index, aliased bool) {
	var secs [sectionTableEntries][]byte
	aliased = isLittleEndian
	for i, e := range h.secs {
		secs[i] = image[e.off : int64(e.off)+sectionElemBytes[i]*int64(e.count)]
		if len(secs[i]) > 0 && uintptr(unsafe.Pointer(&secs[i][0]))%8 != 0 {
			aliased = false
		}
	}
	ix = &Index{params: h.params, numBuckets: int(h.numBuckets)}
	if aliased {
		ix.rows = viewAs[Row](secs[0])
		ix.offsets = viewAs[uint32](secs[1])
		ix.ids = viewAs[uint32](secs[2])
		ix.perm = viewAs[uint32](secs[3])
		ix.precs = viewAs[float64](secs[4])
	} else {
		le := binary.LittleEndian
		ix.rows = decodeSection(secs[0], rowWireBytes, decodeRow)
		ix.offsets = decodeSection(secs[1], 4, le.Uint32)
		ix.ids = decodeSection(secs[2], 4, le.Uint32)
		ix.perm = decodeSection(secs[3], 4, le.Uint32)
		ix.precs = decodeSection(secs[4], 8, func(rec []byte) float64 {
			return math.Float64frombits(le.Uint64(rec))
		})
	}
	ix.buildPeak = ix.MemoryBytes()
	return ix, aliased
}

// verify is the content half of every open: one sequential pass over
// image checking each section's CRC and requiring the alignment padding
// between sections — the one region no CRC covers — to be zero, so any
// flipped byte up to h.end is detected, then the cross-array shape.
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

// decodeVerified is the eager open every entry point but the mapped one
// ends with: section views, then verify.
func decodeVerified(h *fileHeader, image []byte) (*Index, error) {
	ix, _ := indexFromImage(h, image)
	if err := ix.verify(h, image); err != nil {
		return nil, err
	}
	return ix, nil
}

// wholeHeader is readHeader for an image that must be exactly one index:
// a file shorter than its layout is refused by readHeader, a longer one
// here, so no byte of a store file escapes the checksums.
func wholeHeader(image []byte) (*fileHeader, error) {
	h, err := readHeader(bytes.NewReader(image), int64(len(image)))
	if err != nil {
		return nil, err
	}
	if extra := int64(len(image)) - h.end; extra != 0 {
		return nil, fmt.Errorf("slm: %d trailing bytes after the last section", extra)
	}
	return h, nil
}

// ReadIndex deserializes one index written by WriteTo from r, consuming
// exactly its bytes — the header first, then the sections its table names
// — and verifying every checksum and the format version; files written
// by an older format version are refused with a hint to rebuild them.
// Length fields are bounded against both absolute caps and (when r's size
// is knowable) the input size, so a truncated or corrupted input can
// never force an allocation larger than a small multiple of the bytes
// actually present.
func ReadIndex(r io.Reader) (*Index, error) {
	size := inputSize(r)
	var head bytes.Buffer
	h, err := readHeader(io.TeeReader(r, &head), size)
	if err != nil {
		return nil, err
	}
	image, err := readImage(r, head.Bytes(), h.end, size >= 0)
	if err != nil {
		return nil, err
	}
	return decodeVerified(h, image)
}

// DecodeIndex deserializes an index from the complete bytes of a store
// file, with the same checks as ReadIndex plus the whole-file one: image
// must hold the index and nothing after it. Where the host allows it the
// returned index aliases image instead of copying it, so the caller must
// not modify image afterwards.
func DecodeIndex(image []byte) (*Index, error) {
	h, err := wholeHeader(image)
	if err != nil {
		return nil, err
	}
	return decodeVerified(h, image)
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
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ix, err := ReadIndex(f)
	if err != nil {
		return nil, err
	}
	if extra := inputSize(f); extra > 0 {
		return nil, fmt.Errorf("slm: %s: %d trailing bytes after the last section", path, extra)
	}
	return ix, nil
}
