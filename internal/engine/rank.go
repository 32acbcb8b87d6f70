package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"lbe/internal/mpi"
	"lbe/internal/spectrum"
)

// Message tags of the engine protocol.
const (
	tagResults mpi.Tag = 0x10
	tagStats   mpi.Tag = 0x11
)

// rankReport is a worker's closing message to the master: its lifetime
// load accounting and the footprint of its slice of the mapping table.
type rankReport struct {
	Stats        RankStats
	MappingBytes int
}

// mappingBoundaryBytes is what core.MappingTable.MemoryBytes counts per
// chunk boundary. Every rank's slice of the table carries its own two;
// laid end to end the slices share all but the outer pair, which is how
// Result.MappingBytes (and a whole-store Session's) counts them.
const mappingBoundaryBytes = 8

// RunRank executes one rank of the LBE distributed search. Every rank must
// call it with the same peptide list, query list and configuration (in the
// paper, every machine reads the clustered database and the MS2 dataset).
// The master (rank 0) returns the merged Result; workers return nil.
//
// A rank is a one-shard Session behind a communicator: it builds the slice
// of the Size()-way partition that carries its rank and searches the
// queries on it in cfg.BatchSize batches (Session.each), all on the
// caller's goroutine. A worker sends every merged batch to the master as
// it is made; a failed send stops its search and is returned. The PSMs it
// sends are already global (each rank maps through its own subset of the
// mapping table, as a shard-set holder does on the scatter path; the
// paper maps at the master) and already cut to TopK. The master searches
// its own slice first — worker batches wait in its inbox meanwhile, since
// neither transport pushes back on a sender — then takes exactly its
// batch count from every worker off the wire, keeping one list per rank
// per query, and finally merges each query's lists once (MergeSorted).
//
// Each rank uses the full cfg.BuildWorkers and cfg.ThreadsPerRank budgets
// (default: one worker per core), which is right when ranks are separate
// machines; the in-process cluster runners divide both among their ranks.
//
// When ctx is cancelled the search stops between chunks and the rank
// returns ctx's error. A rank blocked in a communicator receive is only
// released when the communicator is closed; the cluster runners
// (RunInProcess, RunOverTCP) do that automatically on cancellation.
func RunRank(ctx context.Context, c mpi.Comm, peptides []string, queries []spectrum.Experimental, cfg Config) (*Result, error) {
	start := time.Now()
	rank, size := c.Rank(), c.Size()

	sess, err := buildSession(peptides, cfg, size, rank, size)
	if err != nil {
		return nil, fmt.Errorf("engine: rank %d: %w", rank, err)
	}
	defer sess.Close()

	if err := mpi.Barrier(c); err != nil {
		return nil, err
	}
	queryPhaseStart := time.Now()

	if rank != 0 {
		err := sess.each(ctx, queries, func(br BatchResult) error {
			return mpi.SendGob(c, 0, tagResults, br)
		})
		if err != nil {
			return nil, err
		}
		report := rankReport{Stats: sess.Stats()[0], MappingBytes: sess.MappingBytes()}
		return nil, mpi.SendGob(c, 0, tagStats, report)
	}

	res := &Result{
		PSMs:           make([][]PSM, len(queries)),
		Stats:          make([]RankStats, size),
		MappingBytes:   sess.MappingBytes(),
		GroupingNanos:  sess.groupingNanos,
		PartitionNanos: sess.partitionNs,
		Groups:         sess.groups,
	}
	// gathered[r][q] is rank r's list for query q: in ComparePSM order and
	// cut to TopK, as every rank's Session leaves it.
	gathered := make([][][]PSM, size)
	for r := range gathered {
		gathered[r] = make([][]PSM, len(queries))
	}
	err = sess.each(ctx, queries, func(br BatchResult) error {
		return gatherBatch(gathered[0], len(peptides), 0, br)
	})
	if err != nil {
		return nil, err
	}
	bsize := cfg.effectiveBatch(len(queries))
	if err := gatherWorkers(c, gathered, len(peptides), (len(queries)+bsize-1)/bsize); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.Stats[0] = sess.Stats()[0]
	for peer := 1; peer < size; peer++ {
		var report rankReport
		if _, err := mpi.RecvGob(c, peer, tagStats, &report); err != nil {
			return nil, err
		}
		res.Stats[peer] = report.Stats
		res.MappingBytes += report.MappingBytes - mappingBoundaryBytes
	}

	lists := make([][]PSM, size)
	for q := range res.PSMs {
		n := 0
		for r := range gathered {
			lists[r] = gathered[r][q]
			n += len(lists[r])
		}
		if cfg.TopK > 0 {
			n = min(n, cfg.TopK)
		}
		if n > 0 { // a query nothing matched stays nil
			res.PSMs[q] = MergeSorted(make([]PSM, 0, n), lists, cfg.TopK, ComparePSM)
		}
	}
	res.QueryNanos = time.Since(queryPhaseStart).Nanoseconds()
	res.TotalNanos = time.Since(start).Nanoseconds()
	return res, nil
}

// gatherWorkers takes the nb batches every worker rank owes off the wire
// and files them under their rank in gathered. It accepts them from
// any source while two or more workers still owe, so whoever finished
// first is taken first. Once a single worker is left owing, the receive
// names it: nothing else can arrive on this tag, and a named receive fails
// when that peer's link goes down where an any-source one would wait
// forever. The first bad batch is the error returned.
func gatherWorkers(c mpi.Comm, gathered [][][]PSM, nPeptides, nb int) error {
	owed := make([]int, c.Size()) // batches each worker has yet to send
	for peer := 1; peer < len(owed); peer++ {
		owed[peer] = nb
	}
	for {
		from, owing := mpi.AnySource, 0
		for peer, n := range owed {
			if n > 0 {
				from = peer
				owing++
			}
		}
		if owing == 0 {
			return nil
		}
		if owing > 1 {
			from = mpi.AnySource
		}
		var br BatchResult
		src, err := mpi.RecvGob(c, from, tagResults, &br)
		if err != nil {
			return err
		}
		if owed[src] == 0 {
			return fmt.Errorf("engine: rank %d sent more than its %d batches", src, nb)
		}
		owed[src]--
		if err := gatherBatch(gathered[src], nPeptides, src, br); err != nil {
			return err
		}
	}
}

// gatherBatch files one rank's merged batch in that rank's per-query
// lists. The batch arrived off the wire, so its query range and peptide
// indices are checked before anything is indexed by them, and its lists'
// order before the master's merge relies on it.
func gatherBatch(lists [][]PSM, nPeptides, from int, br BatchResult) error {
	if br.Offset < 0 || br.Offset > len(lists) || len(br.PSMs) > len(lists)-br.Offset {
		return fmt.Errorf("engine: rank %d sent %d queries at offset %d of a %d-query run", from, len(br.PSMs), br.Offset, len(lists))
	}
	for q, ms := range br.PSMs {
		for _, m := range ms {
			if int(m.Peptide) >= nPeptides {
				return fmt.Errorf("engine: rank %d sent peptide index %d of a %d-peptide database", from, m.Peptide, nPeptides)
			}
		}
		if !slices.IsSortedFunc(ms, ComparePSM) {
			return fmt.Errorf("engine: rank %d sent query %d's matches out of ComparePSM order", from, br.Offset+q)
		}
		lists[br.Offset+q] = ms
	}
	return nil
}
