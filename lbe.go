// Package lbe is the public API of the LBE reproduction: a load-balanced
// distributed peptide-search library (Haseeb, Afzali, Saeed — "LBE: A
// Computational Load Balancing Algorithm for Speeding up Parallel Peptide
// Search in Mass-Spectrometry based Proteomics", IEEE IPDPSW 2019).
//
// The package re-exports the stable surface of the internal packages:
//
//   - data preparation: FASTA I/O, tryptic digestion, deduplication,
//     modification variants, synthetic data generation;
//   - the SLM fragment-ion index and its search parameters;
//   - the LBE layer: peptide grouping, partition policies, mapping table;
//   - the Session API: build the partitioned engine once, then answer
//     any number of query sets with Search (p shards in one process; a
//     store saved with Session.SavePartitioned serves the same partition
//     from p processes behind lbe-router);
//   - the load-balance metrics of the paper's evaluation.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	peps, _ := lbe.Digest(lbe.DefaultDigestConfig(), proteins)
//	sess, _ := lbe.NewSession(lbe.PeptideSequences(peps), lbe.DefaultSessionConfig())
//	defer sess.Close()
//	res, _ := sess.Search(ctx, queries)
//	for _, psm := range res.PSMs[0] { ... }
package lbe

import (
	"lbe/internal/core"
	"lbe/internal/digest"
	"lbe/internal/engine"
	"lbe/internal/fasta"
	"lbe/internal/fdr"
	"lbe/internal/filter"
	"lbe/internal/gen"
	"lbe/internal/mass"
	"lbe/internal/mods"
	"lbe/internal/ms2"
	"lbe/internal/mzml"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
	"lbe/internal/stats"
)

// --- data model ---

// FastaRecord is one protein database entry.
type FastaRecord = fasta.Record

// Peptide is a digestion product with its mass and provenance.
type Peptide = digest.Peptide

// Spectrum is one experimental MS/MS spectrum.
type Spectrum = spectrum.Experimental

// Peak is one (m/z, intensity) pair.
type Peak = spectrum.Peak

// Mod is a variable post-translational modification.
type Mod = mods.Mod

// --- data preparation ---

// DigestConfig controls in-silico digestion.
type DigestConfig = digest.Config

// DefaultDigestConfig returns the paper's Digestor settings (fully
// tryptic, <=2 missed cleavages, length 6-40, mass 100-5000 Da).
func DefaultDigestConfig() DigestConfig { return digest.DefaultConfig() }

// Digest digests protein sequences into peptides.
func Digest(cfg DigestConfig, proteins []string) ([]Peptide, error) {
	return cfg.Proteome(proteins)
}

// Dedup removes duplicate peptide sequences, keeping first occurrences.
func Dedup(peps []Peptide) []Peptide { return digest.Dedup(peps) }

// PeptideSequences projects peptides to their sequences.
func PeptideSequences(peps []Peptide) []string { return digest.Sequences(peps) }

// ReadFasta parses a FASTA file.
func ReadFasta(path string) ([]FastaRecord, error) { return fasta.ReadFile(path) }

// WriteFasta writes a FASTA file.
func WriteFasta(path string, recs []FastaRecord) error { return fasta.WriteFile(path, recs) }

// ReadMS2 parses an MS2 spectra file.
func ReadMS2(path string) ([]Spectrum, error) { return ms2.ReadFile(path) }

// WriteMS2 writes an MS2 spectra file.
func WriteMS2(path string, scans []Spectrum) error { return ms2.WriteFile(path, scans) }

// ReadMzML parses an mzML spectra file.
func ReadMzML(path string) ([]Spectrum, error) { return mzml.ReadFile(path) }

// WriteMzML writes an mzML spectra file (zlib-compressed arrays when
// compress is true).
func WriteMzML(path string, scans []Spectrum, compress bool) error {
	return mzml.WriteFile(path, scans, compress)
}

// --- modifications ---

// ModConfig controls modification-variant enumeration.
type ModConfig = mods.Config

// PaperMods returns the paper's three variable modifications
// (deamidation N/Q, GlyGly K/C, oxidation M).
func PaperMods() []Mod { return mods.PaperSet() }

// DefaultModConfig returns the paper's mod settings (<=5 modified
// residues per peptide).
func DefaultModConfig() ModConfig { return mods.DefaultConfig() }

// --- SLM index ---

// SearchParams configures the SLM fragment-ion index.
type SearchParams = slm.Params

// Index is an immutable fragment-ion index over a peptide set.
type Index = slm.Index

// Match is a candidate peptide-to-spectrum match from an index query.
type Match = slm.Match

// DefaultSearchParams returns the paper's search settings (r=0.01,
// ∆F=0.05 Da, open precursor window, Shpeak>=4, 100 query peaks).
func DefaultSearchParams() SearchParams { return slm.DefaultParams() }

// BuildIndex constructs an SLM index over the peptides, parallelized over
// all available cores.
func BuildIndex(peptides []string, params SearchParams) (*Index, error) {
	return slm.Build(peptides, params)
}

// SaveIndex writes an index to the named file in the checksummed SLMX
// binary format.
func SaveIndex(ix *Index, path string) error { return ix.SaveFile(path) }

// LoadIndex reads an index written by SaveIndex.
func LoadIndex(path string) (*Index, error) { return slm.LoadFile(path) }

// --- the LBE layer ---

// GroupConfig holds Algorithm 1 parameters.
type GroupConfig = core.GroupConfig

// Grouping is a clustering of the peptide database.
type Grouping = core.Grouping

// Policy is a data distribution policy (Chunk, Cyclic, Random).
type Policy = core.Policy

// Partition assigns clustered peptides to machines.
type Partition = core.Partition

// MappingTable maps (machine, virtual index) back to global entries.
type MappingTable = core.MappingTable

// Policy values.
const (
	Chunk  = core.Chunk
	Cyclic = core.Cyclic
	Random = core.Random
)

// ParsePolicy converts a policy name ("chunk", "cyclic", "random",
// "random-within-groups") back to a Policy.
func ParsePolicy(s string) (Policy, error) { return core.ParsePolicy(s) }

// DefaultGroupConfig returns the paper's grouping defaults (criterion 2,
// d'=0.86, group size 20).
func DefaultGroupConfig() GroupConfig { return core.DefaultGroupConfig() }

// Group runs Algorithm 1 over the peptide sequences.
func Group(peptides []string, cfg GroupConfig) (Grouping, error) {
	return core.Group(peptides, cfg)
}

// PartitionClustered distributes clustered peptides over p machines.
func PartitionClustered(g Grouping, p int, policy Policy, seed int64) (Partition, error) {
	return core.PartitionClustered(g, p, policy, seed)
}

// PartitionWeighted distributes clustered peptides proportionally to
// machine speeds (heterogeneous clusters, paper §VIII future work).
func PartitionWeighted(g Grouping, weights []float64, policy Policy, seed int64) (Partition, error) {
	return core.PartitionWeighted(g, weights, policy, seed)
}

// BuildMappingTable constructs the master's O(1) back-mapping table.
func BuildMappingTable(g Grouping, p Partition) MappingTable {
	return core.BuildMappingTable(g, p)
}

// --- sessions ---

// Session owns a built search engine (grouping, partition, one SLM index
// per shard, mapping table) and answers repeated query sets without
// rebuilding — the shape a traffic-serving deployment needs.
// Query batches execute on a work-stealing worker pool (internal/sched):
// results are invariant to the schedule, and Session.SchedulerStats
// reports the per-worker balance and steal telemetry.
type Session = engine.Session

// SchedulerStats is the session-lifetime telemetry of the work-stealing
// execution layer (per-worker work/wall-time, steals, chunk counters).
type SchedulerStats = engine.SchedulerStats

// SessionConfig configures a Session: engine knobs plus the shard count.
type SessionConfig = engine.SessionConfig

// DefaultSessionConfig returns a traffic-serving setup: the paper's
// cyclic policy, one shard, one search thread per core, 256-query batches.
func DefaultSessionConfig() SessionConfig { return engine.DefaultSessionConfig() }

// NewSession builds a reusable search session over the peptide
// database. Results are identical to RunSerial for every policy, shard
// count, thread count and batch size.
func NewSession(peptides []string, cfg SessionConfig) (*Session, error) {
	return engine.NewSession(peptides, cfg)
}

// OpenSession warm-starts a Session from a persistent store directory
// written by Session.Save (or lbe-index -out): the manifest, mapping
// table and per-shard SLMX indexes are reloaded — shards in parallel —
// with every checksum verified before it returns, so a corrupt store
// fails here and never serves. The returned peptide list is the one
// saved alongside the session (nil when the store omitted it). The
// loaded session serves queries exactly as the session that saved it.
//
// Shard indexes are backed by read-only memory mappings where the
// platform allows (heap fallback otherwise).
func OpenSession(dir string) (*Session, []string, error) {
	return engine.OpenSession(dir)
}

// --- engine configuration and results ---

// EngineConfig assembles a search's settings: a Shape and a Schedule.
type EngineConfig = engine.Config

// Shape is everything that decides which bytes a search returns; a store
// and a session digest record exactly this.
type Shape = engine.Shape

// Schedule is how one process spends its cores on a search; results are
// invariant to it (see Session.SetSchedule).
type Schedule = engine.Schedule

// Result is a finished search: every query's PSMs and per-shard load.
type Result = engine.Result

// PSM is a globally resolved peptide-to-spectrum match.
type PSM = engine.PSM

// RankStats carries one shard's load accounting.
type RankStats = engine.RankStats

// DefaultEngineConfig returns the paper's setup with the cyclic policy.
func DefaultEngineConfig() EngineConfig { return engine.DefaultConfig() }

// RunSerial searches on a single shared-memory index (the baseline).
func RunSerial(peptides []string, queries []Spectrum, cfg EngineConfig) (*Result, error) {
	return engine.RunSerial(peptides, queries, cfg)
}

// --- metrics ---

// LoadImbalance computes the paper's Eq. 1: LI = ∆Tmax / Tavg.
func LoadImbalance(times []float64) float64 { return stats.LoadImbalance(times) }

// WastedCPUTime computes §VI's Twst = N * ∆Tmax.
func WastedCPUTime(times []float64) float64 { return stats.WastedCPUTime(times) }

// WorkUnits projects per-rank deterministic work from run stats.
func WorkUnits(sts []RankStats) []float64 { return engine.WorkUnits(sts) }

// QueryTimes projects per-rank query wall times (seconds) from run stats.
func QueryTimes(sts []RankStats) []float64 { return engine.QueryTimes(sts) }

// --- synthetic data ---

// ProteomeConfig controls synthetic proteome generation.
type ProteomeConfig = gen.ProteomeConfig

// SpectraConfig controls synthetic MS/MS run sampling.
type SpectraConfig = gen.SpectraConfig

// GroundTruth records the generating peptide of a synthetic spectrum.
type GroundTruth = gen.GroundTruth

// DefaultProteomeConfig returns a laptop-scale human-like proteome config.
func DefaultProteomeConfig() ProteomeConfig { return gen.DefaultProteomeConfig() }

// DefaultSpectraConfig returns a PXD009072-like synthetic run config.
func DefaultSpectraConfig() SpectraConfig { return gen.DefaultSpectraConfig() }

// GenerateProteome generates a synthetic protein database.
func GenerateProteome(cfg ProteomeConfig) ([]FastaRecord, error) { return gen.Proteome(cfg) }

// GenerateSpectra samples a synthetic MS/MS run from the peptides.
func GenerateSpectra(peptides []string, cfg SpectraConfig) ([]Spectrum, []GroundTruth, error) {
	return gen.Spectra(peptides, cfg)
}

// Preprocess applies the paper's query preprocessing (top-N peaks,
// base-peak normalization).
func Preprocess(s Spectrum, topN int) Spectrum { return spectrum.Preprocess(s, topN) }

// --- validation (target-decoy FDR) ---

// ScoredPSM is an identification entering FDR estimation.
type ScoredPSM = fdr.PSM

// Decoy returns the tryptic decoy of a peptide (reversed, C-terminal
// residue fixed).
func Decoy(seq string) string { return fdr.Decoy(seq) }

// DecoyDB appends one decoy per target and returns the combined database
// plus the index of the first decoy entry.
func DecoyDB(targets []string) ([]string, int) { return fdr.DecoyDB(targets) }

// QValues computes per-PSM q-values by target-decoy competition.
func QValues(psms []ScoredPSM) []float64 { return fdr.QValues(psms) }

// AcceptedAt counts target PSMs with q-value at or below the threshold.
func AcceptedAt(psms []ScoredPSM, qvals []float64, threshold float64) (int, error) {
	return fdr.AcceptedAt(psms, qvals, threshold)
}

// --- filtration baselines (§II-A) ---

// CandidateFilter narrows a peptide database to candidates for a query.
type CandidateFilter = filter.Filter

// NewPrecursorFilter builds the §II-A1 precursor-mass filter.
func NewPrecursorFilter(peptides []string, tol mass.Tolerance) (CandidateFilter, error) {
	return filter.NewPrecursor(peptides, tol)
}

// NewTagFilter builds the §II-A2 sequence-tag filter.
func NewTagFilter(peptides []string, cfg filter.TagConfig) (CandidateFilter, error) {
	return filter.NewTag(peptides, cfg)
}

// DaltonTolerance returns an absolute tolerance of v Daltons.
func DaltonTolerance(v float64) mass.Tolerance { return mass.Da(v) }

// PPMTolerance returns a relative tolerance of v parts per million.
func PPMTolerance(v float64) mass.Tolerance { return mass.Ppm(v) }

// OpenTolerance returns the open-search (infinite) tolerance.
func OpenTolerance() mass.Tolerance { return mass.Open() }
