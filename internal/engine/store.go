package engine

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"

	"lbe/internal/core"
	"lbe/internal/slm"
)

// Persistent session store: the paper's shared-memory design stores index
// chunks on disk when not in use (§II-B); a store generalizes that to the
// whole built engine, so a serving process can warm-start by loading
// index bytes instead of re-digesting and rebuilding the database — the
// amortization HiCOPS-style deployments rely on at tera-scale.
//
// On-disk layout of a store directory:
//
//	manifest.json    what was built, and nothing about how, where or when:
//	                 format version, the Shape (tolerances in their
//	                 string form, policy by name) with the shard count,
//	                 the group count, the number of peptides, the
//	                 shard_set block (a whole store is set 0 of 1 over
//	                 shards 0..P-1), and one {name, size, crc32} record
//	                 per companion file — {…, rows} for a shard. No
//	                 Schedule field and no timing is stored, so the
//	                 manifest is a pure function of (peptides, Shape,
//	                 shard count, sets): two builds of one database are
//	                 byte-identical directories
//	mapping.lbmt     the master mapping table in the checksummed "LBMT"
//	                 binary format (internal/core/mapping_serialize.go)
//	peptides.txt     optional: the global peptide list, one sequence per
//	                 line, for sequence reporting at serve time
//	shard-%04d.slmx  one checksummed SLMX partial index per shard
//	                 (internal/slm/serialize.go)
//
// The manifest is written last, so a crashed Save leaves a directory
// that OpenSession refuses. Every companion file carries two layers of
// integrity: its own format checksum (SLMX/LBMT CRC) and the whole-file
// CRC recorded in the manifest, which also catches files swapped between
// stores of identical parameters. OpenSession loads shards in parallel
// and validates counts, CRCs, and the mapping/shard shape against each
// other before constructing the session.

const (
	storeFormatVersion = 2

	manifestFile = "manifest.json"
	mappingFile  = "mapping.lbmt"
	peptidesFile = "peptides.txt"
	shardPattern = "shard-%04d.slmx"

	// A partitioned cluster store (SavePartitioned) is a directory of
	// set-%02d subdirectories — each a complete store of its own — tied
	// together by cluster.json.
	clusterFile   = "cluster.json"
	setDirPattern = "set-%02d"

	// maxManifestBytes bounds how much of a (possibly corrupt) manifest
	// is read before JSON decoding.
	maxManifestBytes = 16 << 20
)

// storedFile identifies one companion file of the store with its
// integrity record.
type storedFile struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// storedShard is a shard file's record plus the row count its index must
// decode to.
type storedShard struct {
	storedFile
	Rows int `json:"rows"`
}

// storeConfig is what a store records of the configuration: the Shape and
// the number of shards in this directory. canonicalDigest hashes the same
// document for a session no store backs yet.
type storeConfig struct {
	Shape
	Shards int
}

// storeManifest is the JSON document tying the store together.
type storeManifest struct {
	FormatVersion int           `json:"format_version"`
	Config        storeConfig   `json:"config"`
	Groups        int           `json:"groups"`
	NumPeptides   int           `json:"num_peptides,omitempty"`
	ShardSet      ShardSetInfo  `json:"shard_set"`
	Mapping       storedFile    `json:"mapping"`
	Peptides      *storedFile   `json:"peptides,omitempty"`
	Shards        []storedShard `json:"shards"`
}

// checkFormatVersion refuses a manifest of another format version; an
// older one names the way forward.
func checkFormatVersion(v int) error {
	if v == storeFormatVersion {
		return nil
	}
	hint := ""
	if v < storeFormatVersion {
		hint = "; rebuild with `lbe-index -out`"
	}
	return fmt.Errorf("engine: open: unsupported store format version %d (want %d)%s", v, storeFormatVersion, hint)
}

// checkPeptides holds a store's peptide list against its mapping table.
// A whole store's list matches the table exactly; a shard-set slice
// carries the full global list — its subset mapping returns global
// indices, so sequence lookup needs every entry — of which the table
// covers only its own shards' share.
func (ss ShardSetInfo) checkPeptides(n, mapped int) error {
	if n < mapped || (ss.Sets == 1 && n != mapped) {
		return fmt.Errorf("%d peptides do not match the %d mapped entries of set %d of %d", n, mapped, ss.Set, ss.Sets)
	}
	return nil
}

// checksumWriter accumulates the whole-file CRC and byte count recorded
// in the manifest.
type checksumWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *checksumWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	cw.n += int64(n)
	return n, err
}

// storeWriteBuffer is the buffer between a store file's CRC accountant
// and the file: the peptide list arrives one short line at a time, and
// each line would otherwise be its own syscall.
const storeWriteBuffer = 64 << 10

// writeStoreFile creates dir/name, streams fill through a CRC accountant
// and a write buffer, and returns the manifest record.
func writeStoreFile(dir, name string, fill func(io.Writer) error) (storedFile, error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return storedFile{}, err
	}
	bw := bufio.NewWriterSize(f, storeWriteBuffer)
	cw := &checksumWriter{w: bw}
	if err = fill(cw); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return storedFile{}, fmt.Errorf("engine: writing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return storedFile{}, fmt.Errorf("engine: writing %s: %w", name, err)
	}
	return storedFile{Name: name, Size: cw.n, CRC32: cw.crc}, nil
}

// saveSet writes shard-set ss of the session — shards and their chunks of
// the mapping table, with peptides (may be nil) beside them — as one store
// directory and returns its manifest digest. Both Save (the session's own
// set) and SavePartitioned (one slice per call) funnel through it, so the
// two layouts cannot drift.
func (s *Session) saveSet(dir string, shards []*slm.Index, table core.MappingTable, ss ShardSetInfo, peptides []string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("engine: save: %w", err)
	}

	man := storeManifest{
		FormatVersion: storeFormatVersion,
		Config:        storeConfig{Shape: s.shape, Shards: len(shards)},
		Groups:        s.groups,
		ShardSet:      ss,
	}

	// Shards write in parallel, mirroring the parallel load: each file is
	// independent, so save time does not grow linearly with shard count.
	man.Shards = make([]storedShard, len(shards))
	werrs := make([]error, len(shards))
	var wwg sync.WaitGroup
	for m, ix := range shards {
		wwg.Add(1)
		go func(m int, ix *slm.Index) {
			defer wwg.Done()
			man.Shards[m].Rows = ix.NumRows()
			man.Shards[m].storedFile, werrs[m] = writeStoreFile(dir, fmt.Sprintf(shardPattern, m), func(w io.Writer) error {
				_, err := ix.WriteTo(w)
				return err
			})
		}(m, ix)
	}
	wwg.Wait()
	for _, err := range werrs {
		if err != nil {
			return "", err
		}
	}

	blob, err := table.MarshalBinary()
	if err != nil {
		return "", fmt.Errorf("engine: save: %w", err)
	}
	if man.Mapping, err = writeStoreFile(dir, mappingFile, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}); err != nil {
		return "", err
	}

	if peptides != nil {
		// Fail fast on the wrong list (e.g. pre-digest proteins) instead
		// of persisting a store OpenSession will refuse.
		if err := ss.checkPeptides(len(peptides), table.Len()); err != nil {
			return "", fmt.Errorf("engine: save: %w", err)
		}
		for i, p := range peptides {
			if strings.ContainsAny(p, "\r\n") {
				return "", fmt.Errorf("engine: save: peptide %d contains a line break", i)
			}
		}
		sf, err := writeStoreFile(dir, peptidesFile, func(w io.Writer) error {
			for _, p := range peptides {
				if _, err := io.WriteString(w, p); err != nil {
					return err
				}
				if _, err := w.Write([]byte{'\n'}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return "", err
		}
		man.Peptides = &sf
		man.NumPeptides = len(peptides)
	}

	// The manifest goes last: a store interrupted mid-save has no
	// manifest and is refused by OpenSession instead of half-loading.
	doc, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", fmt.Errorf("engine: save: %w", err)
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(filepath.Join(dir, manifestFile), doc, 0o644); err != nil {
		return "", fmt.Errorf("engine: save: %w", err)
	}
	return manifestDigest(doc), nil
}

// Save persists the session as a store directory that OpenSession can
// warm-start from. peptides is the global peptide list the session was
// built over; pass nil to omit it (sequence reporting is then
// unavailable after reload). dir is created if needed; existing store
// files in it are overwritten. Saving a shard-set session preserves its
// shard-set identity.
func (s *Session) Save(dir string, peptides []string) error {
	shards, err := s.liveShards()
	if err != nil {
		return err
	}
	digest, err := s.saveSet(dir, shards, s.table, s.shardSet, peptides)
	if err != nil {
		return err
	}
	// The session's identity is now the store: adopt the manifest hash so
	// this process agrees with every replica that warm-starts from dir.
	s.mu.Lock()
	s.digest = digest
	s.mu.Unlock()
	return nil
}

// liveShards returns the shard indexes a save may encode: every one was
// verified when it was built or opened, so only a closed session has none.
func (s *Session) liveShards() ([]*slm.Index, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("engine: save: session is closed")
	}
	return s.shards, nil
}

// ClusterManifest is the cluster.json document of a partitioned store: it
// names each shard-set directory with its manifest digest and composes
// the cluster-wide digest a scatter/gather router derives independently
// from its probes.
type ClusterManifest struct {
	FormatVersion int      `json:"format_version"`
	Sets          int      `json:"sets"`
	TotalShards   int      `json:"total_shards"`
	NumPeptides   int      `json:"num_peptides,omitempty"`
	SetDirs       []string `json:"set_dirs"`
	SetDigests    []string `json:"set_digests"`
	ClusterDigest string   `json:"cluster_digest"`
}

// ComposeClusterDigest derives the cluster-wide consistency digest from
// the ordered per-set store digests. lbe-index records it in cluster.json
// and a scatter/gather router recomputes it from the digests its probes
// observe; the two agree exactly when every shard-set serves the store
// the partitioning emitted, so answer-cache keys and the router's
// consistency gate compose across the partition boundary. A cluster of
// one set is its store: the digest of exactly one set is that set's.
func ComposeClusterDigest(setDigests []string) string {
	if len(setDigests) == 1 {
		return setDigests[0]
	}
	h := sha256.New()
	io.WriteString(h, "lbe-cluster/v1\x00")
	for _, d := range setDigests {
		io.WriteString(h, d)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SavePartitioned persists the session as a partitioned cluster store:
// sets shard-set directories (set-%02d, each a self-contained store a
// shard-set holder warm-starts from with OpenSession) plus a cluster.json
// manifest composing their digests. Set i holds the contiguous shard
// range setOf gives it; each set's manifest records the global id of
// every local shard and its mapping subset still returns global peptide
// indices, so per-set search results carry whole-store identities and a
// front-end merge of the per-set top-K reproduces Session.Search byte for
// byte.
//
// peptides is the global peptide list; every set stores the full list
// (nil omits it everywhere). Unlike Save, the session's own digest is
// left untouched — the partitioning creates sets new store identities,
// not a new identity for this session.
func (s *Session) SavePartitioned(dir string, peptides []string, sets int) (*ClusterManifest, error) {
	shards, err := s.liveShards()
	if err != nil {
		return nil, err
	}
	if s.shardSet.Sets != 1 {
		return nil, fmt.Errorf("engine: save: session is already a shard-set slice; partition the whole-store session")
	}
	p := len(shards)
	if sets < 1 || sets > p {
		return nil, fmt.Errorf("engine: save: %d shard-sets out of range [1,%d]", sets, p)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: save: %w", err)
	}

	cm := &ClusterManifest{
		FormatVersion: storeFormatVersion,
		Sets:          sets,
		TotalShards:   p,
		NumPeptides:   len(peptides),
		SetDirs:       make([]string, sets),
		SetDigests:    make([]string, sets),
	}
	for i := 0; i < sets; i++ {
		ss := setOf(i, sets, p)
		lo := ss.ShardIDs[0]
		sub, err := s.table.Subset(ss.ShardIDs)
		if err != nil {
			return nil, fmt.Errorf("engine: save: set %d: %w", i, err)
		}
		setDir := fmt.Sprintf(setDirPattern, i)
		// peptides is the full global list in every set; see checkPeptides.
		digest, err := s.saveSet(filepath.Join(dir, setDir), shards[lo:lo+len(ss.ShardIDs)], sub, ss, peptides)
		if err != nil {
			return nil, err
		}
		cm.SetDirs[i] = setDir
		cm.SetDigests[i] = digest
	}
	cm.ClusterDigest = ComposeClusterDigest(cm.SetDigests)

	doc, err := json.MarshalIndent(cm, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("engine: save: %w", err)
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(filepath.Join(dir, clusterFile), doc, 0o644); err != nil {
		return nil, fmt.Errorf("engine: save: %w", err)
	}
	return cm, nil
}

// manifestDigest fingerprints a store by its manifest bytes. Every
// replica that opens the same store computes the same value, and any
// difference in shape, content checksums or format version changes it —
// the manifest as the cluster's shape contract.
func manifestDigest(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// checkStoredName rejects manifest file names that would escape the
// store directory.
func checkStoredName(name string) error {
	if name == "" || name != filepath.Base(name) || name == "." || name == ".." {
		return fmt.Errorf("engine: open: manifest names invalid file %q", name)
	}
	return nil
}

// storedPath resolves a manifest entry to dir/name, checking the name and
// that the file has the size the manifest recorded.
func storedPath(dir string, sf storedFile) (string, error) {
	if err := checkStoredName(sf.Name); err != nil {
		return "", err
	}
	path := filepath.Join(dir, sf.Name)
	fi, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("engine: open: %w", err)
	}
	if fi.Size() != sf.Size {
		return "", fmt.Errorf("engine: open: %s is %d bytes, manifest says %d", sf.Name, fi.Size(), sf.Size)
	}
	return path, nil
}

// openStoredFile reads dir/name fully, verifying the manifest's size and
// whole-file CRC.
func openStoredFile(dir string, sf storedFile) ([]byte, error) {
	path, err := storedPath(dir, sf)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	if crc := crc32.ChecksumIEEE(data); crc != sf.CRC32 {
		return nil, fmt.Errorf("engine: open: %s checksum %08x does not match manifest %08x", sf.Name, crc, sf.CRC32)
	}
	return data, nil
}

// openShard opens one SLMX shard file — memory-mapped, or read into the
// heap when mapped is false — and checks it against the manifest's size
// and whole-file CRC. Both opens decode and verify the whole image (section
// CRCs, padding, CSR shape) before they return; the manifest check then
// runs over the bytes the index serves, not a second read of the file,
// and catches shard files swapped between slots or replaced wholesale,
// which stay self-consistent and pass their own checksums. A shard that
// fails the check is closed before openShard returns.
//
// A failed mapped open is final, not retried on the heap: both opens run
// the same slm decoder over the same bytes, and mmapio.Open itself falls
// back to a heap read when the mapping syscall fails, so a retry could
// only reproduce the error.
func openShard(dir string, sf storedFile, mapped bool) (*slm.Index, error) {
	path, err := storedPath(dir, sf)
	if err != nil {
		return nil, err
	}
	var ix *slm.Index
	if mapped {
		ix, err = slm.OpenIndexMapped(path)
	} else {
		ix, err = slm.LoadFile(path)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: open: %s: %w", sf.Name, err)
	}
	cw := &checksumWriter{w: io.Discard}
	if _, err := ix.WriteTo(cw); err != nil {
		ix.Close()
		return nil, fmt.Errorf("engine: open: %s: %w", sf.Name, err)
	}
	if cw.n != sf.Size || cw.crc != sf.CRC32 {
		ix.Close()
		return nil, fmt.Errorf("engine: open: %s checksum %08x does not match manifest %08x", sf.Name, cw.crc, sf.CRC32)
	}
	return ix, nil
}

// OpenOptions controls how OpenSession backs the loaded store. Only the
// repository benchmark's heap-load probe sets MapStore false; the type
// and OpenSessionOptions go with ROADMAP item 1 (e).
type OpenOptions struct {
	// MapStore backs each shard index with a read-only memory mapping of
	// its SLMX file instead of reading it into the heap: the index's
	// resident bytes are kernel page cache shared with every co-located
	// process serving the same store, and clean pages are reclaimable
	// under memory pressure. Either way every shard is verified before
	// the open returns, and results are byte-identical. Where shards
	// cannot be mapped (platforms without mmap) the bytes are read into
	// the heap instead; Session.MappedShards reports the outcome.
	MapStore bool
}

// OpenSession warm-starts a session from a store directory written by
// Save: the manifest is validated, the mapping table and every shard
// index are reloaded and verified against the manifest (shards in
// parallel), and the cross-file shape is checked before the session is
// assembled: a store that returns is one every byte of which has been
// checked, and a store that fails any check leaves nothing mapped. The
// returned peptide list is the one saved alongside the session, or nil
// when the store was saved without peptides.
//
// Shard indexes are memory-mapped when the platform allows it (with
// automatic heap fallback).
//
// The loaded session serves queries exactly as the session that saved it
// would: the indexes and mapping table are byte-for-byte the saved ones.
func OpenSession(dir string) (*Session, []string, error) {
	return OpenSessionOptions(dir, OpenOptions{MapStore: true})
}

// OpenSessionOptions is OpenSession with explicit control over the store
// backing.
func OpenSessionOptions(dir string, opts OpenOptions) (_ *Session, _ []string, err error) {
	f, err := os.Open(filepath.Join(dir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			if _, cerr := os.Stat(filepath.Join(dir, clusterFile)); cerr == nil {
				return nil, nil, fmt.Errorf("engine: open: %s is a partitioned cluster store; open one of its %s directories",
					dir, fmt.Sprintf(setDirPattern, 0))
			}
		}
		return nil, nil, fmt.Errorf("engine: open: %w", err)
	}
	doc, err := io.ReadAll(io.LimitReader(f, maxManifestBytes+1))
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("engine: open: reading manifest: %w", err)
	}
	if len(doc) > maxManifestBytes {
		return nil, nil, fmt.Errorf("engine: open: manifest exceeds %d bytes", maxManifestBytes)
	}
	// The version is read on its own first: an older manifest has fields
	// the strict decode below would trip over before it could be named.
	var ver struct {
		FormatVersion int `json:"format_version"`
	}
	if err := json.Unmarshal(doc, &ver); err != nil {
		return nil, nil, fmt.Errorf("engine: open: parsing manifest: %w", err)
	}
	if err := checkFormatVersion(ver.FormatVersion); err != nil {
		return nil, nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	var man storeManifest
	if err := dec.Decode(&man); err != nil {
		return nil, nil, fmt.Errorf("engine: open: parsing manifest: %w", err)
	}
	p := man.Config.Shards
	if p < 1 {
		return nil, nil, fmt.Errorf("engine: open: manifest declares %d shards", p)
	}
	if len(man.Shards) != p {
		return nil, nil, fmt.Errorf("engine: open: manifest lists %d shard files for %d shards", len(man.Shards), p)
	}
	if err := man.Config.Params.Validate(); err != nil {
		return nil, nil, fmt.Errorf("engine: open: stored config: %w", err)
	}
	ss := man.ShardSet
	if ss.Sets < 1 || ss.Set < 0 || ss.Set >= ss.Sets {
		return nil, nil, fmt.Errorf("engine: open: manifest names shard-set %d of %d", ss.Set, ss.Sets)
	}
	if len(ss.ShardIDs) != p {
		return nil, nil, fmt.Errorf("engine: open: manifest lists %d global shard ids for %d shards",
			len(ss.ShardIDs), p)
	}
	if ss.TotalShards < p || (ss.Sets == 1 && ss.TotalShards != p) {
		return nil, nil, fmt.Errorf("engine: open: set %d of %d holds %d shards of a %d-shard cluster",
			ss.Set, ss.Sets, p, ss.TotalShards)
	}
	for i, id := range ss.ShardIDs {
		if id < 0 || id >= ss.TotalShards {
			return nil, nil, fmt.Errorf("engine: open: global shard id %d out of range [0,%d)", id, ss.TotalShards)
		}
		if i > 0 && id <= ss.ShardIDs[i-1] {
			return nil, nil, fmt.Errorf("engine: open: global shard ids are not strictly increasing")
		}
	}

	blob, err := openStoredFile(dir, man.Mapping)
	if err != nil {
		return nil, nil, err
	}
	table, err := core.UnmarshalMappingTable(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: open: %s: %w", man.Mapping.Name, err)
	}
	if table.Machines() != p {
		return nil, nil, fmt.Errorf("engine: open: mapping covers %d machines, manifest declares %d shards",
			table.Machines(), p)
	}

	var peptides []string
	if man.Peptides != nil {
		data, err := openStoredFile(dir, *man.Peptides)
		if err != nil {
			return nil, nil, err
		}
		if len(data) > 0 {
			if data[len(data)-1] != '\n' {
				return nil, nil, fmt.Errorf("engine: open: %s is not newline-terminated", man.Peptides.Name)
			}
			peptides = strings.Split(string(data[:len(data)-1]), "\n")
		} else {
			peptides = []string{}
		}
		if len(peptides) != man.NumPeptides {
			return nil, nil, fmt.Errorf("engine: open: %s holds %d peptides, manifest says %d",
				man.Peptides.Name, len(peptides), man.NumPeptides)
		}
		if err := ss.checkPeptides(len(peptides), table.Len()); err != nil {
			return nil, nil, fmt.Errorf("engine: open: %w", err)
		}
	}

	// Shards open and verify in parallel, each in O(index bytes). A store
	// refused from here on releases every shard that did open now, rather
	// than when the collector finds its mapping.
	shards := make([]*slm.Index, p)
	defer func() {
		if err != nil {
			for _, ix := range shards {
				if ix != nil {
					ix.Close()
				}
			}
		}
	}()
	errs := make([]error, p)
	var wg sync.WaitGroup
	for m := 0; m < p; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			shards[m], errs[m] = openShard(dir, man.Shards[m].storedFile, opts.MapStore)
		}(m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// Cross-file shape checks: every shard must hold the rows the manifest
	// recorded and fit inside its mapping chunk, so a query can never
	// hit an unmappable virtual index. The params check closes the gap
	// between the human-editable JSON manifest and the CRC-protected
	// SLMX files: query preprocessing runs off the manifest's Params
	// while matching runs off each shard's, so they must be identical.
	build := make([]RankStats, p)
	for m, ix := range shards {
		if !reflect.DeepEqual(ix.Params(), man.Config.Params) {
			return nil, nil, fmt.Errorf("engine: open: shard %d params disagree with the manifest", m)
		}
		if ix.NumRows() != man.Shards[m].Rows {
			return nil, nil, fmt.Errorf("engine: open: shard %d has %d rows, manifest says %d",
				m, ix.NumRows(), man.Shards[m].Rows)
		}
		if np := ix.NumPeptides(); np > table.MachineLen(m) {
			return nil, nil, fmt.Errorf("engine: open: shard %d indexes %d peptides but the mapping grants it %d",
				m, np, table.MachineLen(m))
		}
		build[m] = rankStats(ss.ShardIDs[m], table.MachineLen(m), ix, 0)
	}

	// The store says what was built; how to run it is this process's own
	// business, so the session starts on the default schedule whatever the
	// builder ran under.
	s := &Session{
		shape:    man.Config.Shape,
		schedule: DefaultSessionConfig().Schedule,
		shards:   shards,
		table:    table,
		groups:   man.Groups,
		build:    build,
		shardSet: ss,
		load:     append([]RankStats(nil), build...),
		digest:   manifestDigest(doc),
	}
	s.pool = newPool(s.schedule, s.shape.TopK)
	return s, peptides, nil
}
