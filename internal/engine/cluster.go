package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lbe/internal/mpi"
	"lbe/internal/spectrum"
)

// RunInProcess runs the full distributed search on a virtual cluster of p
// ranks inside this process (one goroutine per rank over the in-process
// transport) and returns the master's result. When ctx is cancelled the
// communicators are closed, every rank unblocks promptly, and ctx's error
// is returned.
func RunInProcess(ctx context.Context, p int, peptides []string, queries []spectrum.Experimental, cfg Config) (*Result, error) {
	world := mpi.NewWorld(p)
	defer world.Close()
	return runOnComms(ctx, world.Comms(), peptides, queries, cfg)
}

// RunOverTCP runs the same search with the p ranks connected through real
// loopback TCP links, demonstrating wire-level operation (lbe-search
// -tcp). Cancellation behaves as in RunInProcess.
func RunOverTCP(ctx context.Context, p int, peptides []string, queries []spectrum.Experimental, cfg Config) (*Result, error) {
	comms, err := mpi.NewTCPCluster(p)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	return runOnComms(ctx, comms, peptides, queries, cfg)
}

// runOnComms drives one RunRank goroutine per endpoint. On ctx
// cancellation — or the first rank failure — it closes every endpoint so
// ranks blocked in communicator receives (Barrier included) unblock
// instead of deadlocking; both transports make Close idempotent, so the
// caller's deferred cleanup stays safe.
func runOnComms(outer context.Context, comms []mpi.Comm, peptides []string, queries []spectrum.Experimental, cfg Config) (*Result, error) {
	// Every rank lives in this process, building and then searching
	// beside the others, so divide both worker budgets across them
	// (RunRank on a real multi-process cluster keeps the full per-machine
	// budgets).
	cfg.BuildWorkers = divideBudget(cfg.BuildWorkers, len(comms))
	cfg.ThreadsPerRank = divideBudget(cfg.ThreadsPerRank, len(comms))

	ctx, cancel := context.WithCancel(outer)
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			for _, c := range comms {
				c.Close()
			}
		case <-done:
		}
	}()

	var wg sync.WaitGroup
	results := make([]*Result, len(comms))
	errs := make([]error, len(comms))
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = RunRank(ctx, comms[r], peptides, queries, cfg)
			if errs[r] != nil {
				cancel() // tear the cluster down so peers don't wait forever
			}
		}(r)
	}
	wg.Wait()
	if err := outer.Err(); err != nil {
		return nil, err
	}
	// Prefer a root-cause error over the ErrClosed/cancellation fallout
	// the teardown induced on the surviving ranks.
	var fallout error
	for r, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("engine: rank %d failed: %w", r, err)
		if errors.Is(err, mpi.ErrClosed) || errors.Is(err, context.Canceled) {
			if fallout == nil {
				fallout = wrapped
			}
			continue
		}
		return nil, wrapped
	}
	if fallout != nil {
		return nil, fallout
	}
	if results[0] == nil {
		return nil, fmt.Errorf("engine: master produced no result")
	}
	return results[0], nil
}
