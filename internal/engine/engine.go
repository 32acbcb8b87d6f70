// Package engine runs LBE-distributed peptide search: it partitions the
// peptide database with the configured LBE policy, builds one partial SLM
// index per partition, searches every query spectrum on every partition
// concurrently, and merges the per-partition best matches through the
// O(1) mapping table (paper §III-D/E, Fig. 3 and Fig. 4).
//
// Every run mode is built on one function, Session.searchBatch
// (session.go): preprocess → search on the scheduler pool → merge through
// the mapping table, for one batch of queries, on the caller's goroutine.
// Session.Search loops it over a query set in Schedule.BatchSize slices.
// The paper's p ranks are a p-shard Session in one process, or the
// shard-sets of a p-shard store (Session.SavePartitioned), each a Session
// in its own process, behind a scatter router that merges their lists
// once per query (MergeSorted).
//
// The mapping table is applied where a partition is searched: a shard-set
// holder maps its own matches through its MappingTable.Subset and ships
// global peptide indices. The paper maps at the master, which holds the
// whole table; a shard-set holder keeps only its own chunks of it.
//
// The same search can be run serially (RunSerial) as the correctness
// reference and as the shared-memory baseline for the memory-footprint
// comparison; it shares no scheduler, batching or merge code with Session.
package engine

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"lbe/internal/core"
	"lbe/internal/sched"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// Shape is everything that decides which bytes a search returns: what
// is indexed, how the database is grouped and dealt to shards, and how
// deep the report goes. It is the one definition of a built engine's
// identity — the store manifest persists it, canonicalDigest hashes it,
// and the answer cache binds to the digest — and a Session cannot change
// it after construction.
type Shape struct {
	Params slm.Params       // SLM index/search parameters
	Group  core.GroupConfig // Algorithm 1 grouping parameters
	Policy core.Policy      // data distribution policy
	Seed   int64            // seed for the Random policies
	TopK   int              // matches kept per query at the master; 0 = all
	// RawOrder disables LBE grouping and partitions the database in its
	// original order (the no-clustering ablation baseline).
	RawOrder bool
	// Weights gives relative machine speeds for heterogeneous clusters
	// (§VIII's load-predicting model); peptide shares are proportional.
	// Nil or empty means a symmetric cluster. When set, its length must
	// equal the shard count.
	Weights []float64 `json:",omitempty"`
}

// Schedule is how this process spends its cores. Results are invariant
// to all three fields, so none of them is part of a store or a digest: a
// process sets its own (Session.SetSchedule) whatever built the index.
type Schedule struct {
	// ThreadsPerRank enables the hybrid "OpenMP within MPI" parallelism
	// of the paper's future work (§VIII): a process searches its query
	// batch with a pool of this many scheduler workers (internal/sched);
	// 0 means one worker per core. The budget is per process: a Session
	// shares it across every shard it holds.
	ThreadsPerRank int
	// BatchSize is how many queries of a set are preprocessed, searched and
	// merged at a time (Session.searchBatch). 0 makes the whole set one
	// batch (the paper's description).
	BatchSize int
	// BuildWorkers is the per-rank index construction parallelism; 0 uses
	// one worker per available core. The built index is byte-identical
	// for any worker count.
	BuildWorkers int
}

// effectiveBatch resolves the batch size for an n-query set: BatchSize if
// set, else the whole set as a single batch.
func (sc Schedule) effectiveBatch(n int) int {
	if sc.BatchSize > 0 {
		return sc.BatchSize
	}
	return max(n, 1)
}

// newPool builds the scheduler pool the schedule describes: ThreadsPerRank
// workers (0 = one per core) stealing over per-shard chunk deques whose
// granularity the pool tunes itself. The shape's topK goes down with it:
// workers hand back, per (shard, query) cell, only the matches that can
// still reach the merged best topK (ties at the cell's cut included, so
// sortPSMs still breaks them).
func newPool(sc Schedule, topK int) *sched.Pool {
	workers := sc.ThreadsPerRank
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return sched.NewPool(sched.Options{Workers: workers, TopK: topK})
}

// divideBudget splits a worker budget (index construction or search; 0
// means one per available core) across n concurrent users sharing this
// process, rounding up so every user gets at least one worker.
func divideBudget(budget, n int) int {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return (budget + n - 1) / n
}

// Config assembles all the knobs of a distributed search run: what is
// built (Shape) and how this process runs it (Schedule).
type Config struct {
	Shape
	Schedule
}

// DefaultConfig mirrors the paper's experimental setup with the cyclic
// policy and top-10 PSMs per query. Its Schedule is the zero value: one
// scheduler worker and one build worker per core and one batch per query
// set, on the work-stealing pool every schedule runs.
func DefaultConfig() Config {
	return Config{
		Shape: Shape{
			Params: slm.DefaultParams(),
			Group:  core.DefaultGroupConfig(),
			Policy: core.Cyclic,
			TopK:   10,
		},
	}
}

// PSM is a peptide-to-spectrum match resolved to the global peptide list.
type PSM struct {
	Peptide   uint32  // index into the original peptide list
	Shared    uint16  // shared-peak count
	Score     float64 // match score
	Precursor float64 // matched variant's neutral mass
	Origin    int     // shard whose partition produced the match
}

// RankStats describes one rank's share of the run; the load-balance
// figures are computed from these.
type RankStats struct {
	Rank           int
	Peptides       int      // peptides in this rank's partition
	Rows           int      // indexed spectra (peptide variants)
	IndexBytes     int      // resident partial-index size
	BuildPeakBytes int      // transient peak during construction
	BuildNanos     int64    // wall time of local index construction
	QueryNanos     int64    // wall time of the local query phase
	Work           slm.Work // deterministic work units
}

// QueryTimes projects per-rank query wall times in seconds.
func QueryTimes(stats []RankStats) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = time.Duration(s.QueryNanos).Seconds()
	}
	return out
}

// WorkUnits projects per-rank deterministic work (ion hits + scored
// candidates), the quantity LBE balances.
func WorkUnits(stats []RankStats) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = float64(s.Work.IonHits + s.Work.Scored)
	}
	return out
}

// Result is the master's view of a finished run.
type Result struct {
	// PSMs[q] holds query q's matches, best first.
	PSMs [][]PSM
	// Stats holds one entry per rank.
	Stats []RankStats
	// MappingBytes is the footprint of the mapping table the searching
	// session holds: the whole table, or a shard-set's own chunks of it.
	MappingBytes int
	// GroupingNanos, PartitionNanos cover the serial LBE preprocessing.
	GroupingNanos  int64
	PartitionNanos int64
	// QueryNanos is the wall time of the query phase.
	QueryNanos int64
	// TotalNanos is the wall time of the whole run.
	TotalNanos int64
	// Groups is the number of LBE groups formed.
	Groups int
}

// CandidatePSMs returns the total number of candidate PSMs (the quantity
// the paper reports as 22.5 billion for the full dataset).
func (r *Result) CandidatePSMs() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.Work.Scored
	}
	return n
}

// ComparePSM is the one PSM order, best first: Score descending, then
// Peptide ascending, then Precursor ascending, then Shared descending. It
// reads only fields every path computes the same way (Origin is left
// out), so a list sorted by it is identical whichever path produced it —
// serial, session shards or the scatter router's merge of rendered
// replies. PSMs that tie on all four keys are equal in every field (a
// peptide lives in one shard, so Origin follows Peptide), so no order
// among them is ever visible.
func ComparePSM(a, b PSM) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Peptide, b.Peptide); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Precursor, b.Precursor); c != 0 {
		return c
	}
	return cmp.Compare(b.Shared, a.Shared)
}

// sortPSMs orders matches by ComparePSM.
func sortPSMs(ms []PSM) { slices.SortFunc(ms, ComparePSM) }

// MergeSorted is the one gather: it appends to dst the first k elements
// (all of them when k <= 0) of the merge of lists, each already in cmp
// order, and returns the extended slice. Ties go to the lower-indexed
// list, so the result is what a stable sort of the lists' concatenation
// cut to k would be, at one comparison per list per element taken. A
// gather merges one list per shard-set, a handful, so a linear scan of
// the heads beats a heap. The lists are consumed: on return each
// lists[i] holds what was not taken.
func MergeSorted[E any](dst []E, lists [][]E, k int, cmp func(a, b E) int) []E {
	for taken := 0; k <= 0 || taken < k; taken++ {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || cmp(l[0], lists[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, lists[best][0])
		lists[best] = lists[best][1:]
	}
	return dst
}

// RunSerial searches queries against a single shared-memory index over the
// whole peptide list: the baseline system LBE distributes. The returned
// Result has one RankStats entry (rank 0).
func RunSerial(peptides []string, queries []spectrum.Experimental, cfg Config) (*Result, error) {
	start := time.Now()
	buildStart := time.Now()
	// The baseline is serial end to end — including construction — so it
	// stays the independent reference the parallel paths are checked
	// against: it shares no build workers with them, and the parallel
	// build is proven byte-identical to this one.
	ix, err := slm.BuildSerial(peptides, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("engine: serial build: %w", err)
	}
	buildNanos := time.Since(buildStart).Nanoseconds()

	qs := spectrum.PreprocessAll(queries, cfg.Params.MaxQueryPeaks)
	queryStart := time.Now()
	matches, work := ix.SearchAll(qs, 0)
	queryNanos := time.Since(queryStart).Nanoseconds()

	res := &Result{
		PSMs: make([][]PSM, len(queries)),
		Stats: []RankStats{{
			Rank:           0,
			Peptides:       len(peptides),
			Rows:           ix.NumRows(),
			IndexBytes:     ix.MemoryBytes(),
			BuildPeakBytes: ix.BuildPeakBytes(),
			BuildNanos:     buildNanos,
			QueryNanos:     queryNanos,
			Work:           work,
		}},
		QueryNanos: queryNanos,
	}
	for q, ms := range matches {
		psms := make([]PSM, len(ms))
		for i, m := range ms {
			psms[i] = PSM{
				Peptide:   m.Peptide, // local == global in the serial case
				Shared:    m.Shared,
				Score:     m.Score,
				Precursor: m.Precursor,
				Origin:    0,
			}
		}
		sortPSMs(psms)
		if cfg.TopK > 0 && len(psms) > cfg.TopK {
			psms = psms[:cfg.TopK]
		}
		res.PSMs[q] = psms
	}
	res.TotalNanos = time.Since(start).Nanoseconds()
	return res, nil
}
