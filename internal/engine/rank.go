package engine

import (
	"context"
	"fmt"
	"sync"
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

// pipeDepth is how many merged batches a worker rank may have waiting for
// the wire: enough that a send overlaps the next batch's search, without
// queueing a slow link's backlog in memory.
const pipeDepth = 2

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
// of the Size()-way partition that carries its rank, searches the queries
// on it in cfg.BatchSize batches (Session.each) and hands every merged
// batch to a sender goroutine, so the next batch's search overlaps the
// send. The PSMs it ships are already global (each rank maps through its
// own subset of the mapping table, as a shard-set holder does on the
// scatter path; the paper maps at the master) and already cut to TopK, so
// the master only re-sorts the union per query and cuts it once more.
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

	// Internal cancellation lets the master stop its own search the
	// moment merging fails, instead of searching the rest of the run just
	// to report the error. Remote messages are still drained so no
	// goroutine is left parked in a communicator receive.
	outer := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

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
		if err := shipBatches(ctx, c, sess, queries); err != nil {
			return nil, err
		}
		report := rankReport{Stats: sess.Stats()[0], MappingBytes: sess.MappingBytes()}
		return nil, mpi.SendGob(c, 0, tagStats, report)
	}

	// --- master: incremental merge, overlapped with its own search ---
	res := &Result{
		PSMs:           make([][]PSM, len(queries)),
		Stats:          make([]RankStats, size),
		MappingBytes:   sess.MappingBytes(),
		GroupingNanos:  sess.groupingNanos,
		PartitionNanos: sess.partitionNs,
		Groups:         sess.groups,
	}

	type gathered struct {
		from  int
		batch BatchResult
		err   error
	}
	mergeCh := make(chan gathered, size)
	var producers sync.WaitGroup

	// Local feeder: the master's own merged batches, and the error that
	// ended its search early if one did. Like the drainer below it sends
	// unconditionally: the merge loop consumes mergeCh until it closes.
	producers.Add(1)
	go func() {
		defer producers.Done()
		err := sess.each(ctx, queries, func(br BatchResult) error {
			mergeCh <- gathered{from: 0, batch: br}
			return nil
		})
		if err != nil {
			mergeCh <- gathered{err: err}
		}
	}()
	// Remote drainer: every worker owes exactly nb batches; accept them
	// from any source so early arrivals are merged while slow workers
	// still search. Once a single worker is left owing, the receive names
	// it: nothing else can arrive on this tag, and a named receive fails
	// when that peer's link goes down where an any-source one would wait
	// forever. Its sends are unconditional too (no ctx select): the merge
	// loop consumes mergeCh until it closes even after an error, so the
	// drainer always runs to completion instead of leaking into a
	// receive on a still-open communicator.
	bsize := cfg.effectiveBatch(len(queries))
	nb := (len(queries) + bsize - 1) / bsize
	producers.Add(1)
	go func() {
		defer producers.Done()
		owed := make([]int, size) // batches each worker has yet to send
		for peer := 1; peer < size; peer++ {
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
				return
			}
			if owing > 1 {
				from = mpi.AnySource
			}
			var br BatchResult
			src, err := mpi.RecvGob(c, from, tagResults, &br)
			if err == nil && owed[src] == 0 {
				err = fmt.Errorf("engine: rank %d sent more than its %d batches", src, nb)
			}
			if err != nil {
				mergeCh <- gathered{err: err}
				return
			}
			owed[src]--
			mergeCh <- gathered{from: src, batch: br}
		}
	}()
	go func() {
		producers.Wait()
		close(mergeCh)
	}()

	var mergeErr error
	for g := range mergeCh {
		if mergeErr != nil {
			continue // discard: drain the remote producer to completion
		}
		if g.err != nil {
			mergeErr = g.err
		} else {
			mergeErr = appendGathered(res.PSMs, len(peptides), g.from, g.batch)
		}
		if mergeErr != nil {
			// Stop the master's own (expensive) search; the
			// drainer keeps receiving the remaining (cheap) messages so
			// the communicator is left without a parked receiver.
			cancel()
		}
	}
	if mergeErr != nil {
		return nil, mergeErr
	}
	if err := outer.Err(); err != nil {
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

	for q := range res.PSMs {
		sortPSMs(res.PSMs[q])
		if cfg.TopK > 0 && len(res.PSMs[q]) > cfg.TopK {
			res.PSMs[q] = res.PSMs[q][:cfg.TopK]
		}
	}
	res.QueryNanos = time.Since(queryPhaseStart).Nanoseconds()
	res.TotalNanos = time.Since(start).Nanoseconds()
	return res, nil
}

// shipBatches is a worker rank's query phase: the session searches the
// queries batch by batch while a sender goroutine puts the merged batches
// on the wire to the master, in order, at most pipeDepth behind. A failed
// send cancels the search — nobody will receive the batches still to come
// — and is the error returned.
func shipBatches(ctx context.Context, c mpi.Comm, sess *Session, queries []spectrum.Experimental) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outbox := make(chan BatchResult, pipeDepth)
	sent := make(chan error, 1)
	go func() {
		var err error
		for br := range outbox {
			if err = mpi.SendGob(c, 0, tagResults, br); err != nil {
				cancel()
				break
			}
		}
		sent <- err
	}()
	err := sess.each(ctx, queries, func(br BatchResult) error {
		select {
		case outbox <- br:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	close(outbox)
	if sendErr := <-sent; sendErr != nil {
		return sendErr
	}
	return err
}

// appendGathered adds one rank's merged batch to the master's per-query
// lists. The batch arrived off the wire, so its query range and peptide
// indices are checked before anything is indexed by them.
func appendGathered(psms [][]PSM, nPeptides, from int, br BatchResult) error {
	if br.Offset < 0 || br.Offset > len(psms) || len(br.PSMs) > len(psms)-br.Offset {
		return fmt.Errorf("engine: rank %d sent %d queries at offset %d of a %d-query run", from, len(br.PSMs), br.Offset, len(psms))
	}
	for q, ms := range br.PSMs {
		for _, m := range ms {
			if int(m.Peptide) >= nPeptides {
				return fmt.Errorf("engine: rank %d sent peptide index %d of a %d-peptide database", from, m.Peptide, nPeptides)
			}
		}
		psms[br.Offset+q] = append(psms[br.Offset+q], ms...)
	}
	return nil
}
