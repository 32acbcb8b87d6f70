package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"lbe/internal/engine"
	"lbe/internal/spectrum"
)

// Admission errors mapped to HTTP statuses by the /search handler.
var (
	// ErrQueueFull means the bounded admission queue is at capacity and
	// the request was rejected with backpressure (HTTP 429).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining means the server is shutting down and no longer admits
	// new requests (HTTP 503).
	ErrDraining = errors.New("server: draining")
)

// request is one admitted /search call waiting for its slice of a merged
// batch.
type request struct {
	ctx     context.Context
	queries []spectrum.Experimental
	// resp is buffered (capacity 1) and receives exactly one response, so
	// the dispatcher never blocks on an abandoned request.
	resp chan response
}

type response struct {
	psms [][]engine.PSM
	err  error
}

// submit places a request on the admission queue, failing fast when the
// server is draining or the queue is full. The read lock is held across
// the send so Shutdown can establish "no more enqueues" by taking the
// write lock after flipping draining.
func (s *Server) submit(r *request) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		s.rejectedDrain.Add(1)
		return ErrDraining
	}
	// The WaitGroup must be incremented before the request is visible on
	// the queue: the coalescer may dequeue and answer it (Done) at any
	// moment after the send.
	s.reqWG.Add(1)
	select {
	case s.queue <- r:
		s.accepted.Add(1)
		return nil
	default:
		s.reqWG.Done()
		s.rejectedQueue.Add(1)
		return ErrQueueFull
	}
}

// coalesceLoop is the server's single collector goroutine: it gathers
// admitted requests until their query total reaches BatchSize or a
// partial collection ages past FlushInterval, then hands the collection
// to dispatch, which packs it into merged batches of at most BatchSize
// queries each (a single request bigger than BatchSize is the one
// documented exception — see packRequests) and runs every batch on a
// bounded pool of search workers. Acquiring an in-flight slot happens
// there, synchronously — when every worker is busy the collector stalls,
// the admission queue fills, and new requests get 429s. That is the
// backpressure path.
func (s *Server) coalesceLoop() {
	defer close(s.coalesceDone)
	for {
		var first *request
		select {
		case first = <-s.queue:
		case <-s.quit:
			s.drainRemaining()
			return
		}
		pending := []*request{first}
		total := len(first.queries)
		timer := time.NewTimer(s.cfg.FlushInterval)
	collect:
		for total < s.cfg.BatchSize {
			select {
			case r := <-s.queue:
				pending = append(pending, r)
				total += len(r.queries)
			case <-timer.C:
				break collect
			case <-s.quit:
				break collect
			}
		}
		timer.Stop()
		s.dispatch(pending)
	}
}

// drainRemaining flushes everything left on the queue after Shutdown
// closed admission. The queue's contents are fixed at this point (submit
// cannot run once draining is set), so non-blocking receives see it all.
func (s *Server) drainRemaining() {
	var pending []*request
	total := 0
	for {
		select {
		case r := <-s.queue:
			pending = append(pending, r)
			total += len(r.queries)
			if total >= s.cfg.BatchSize {
				s.dispatch(pending)
				pending, total = nil, 0
			}
		default:
			if len(pending) > 0 {
				s.dispatch(pending)
			}
			return
		}
	}
}

// dispatch answers already-dead requests without searching, packs the
// live ones into merged batches of at most BatchSize queries, and runs
// each batch on a search worker. Called only from the coalescer
// goroutine.
func (s *Server) dispatch(reqs []*request) {
	live := reqs[:0]
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			r.resp <- response{err: err}
			s.reqWG.Done()
			continue
		}
		live = append(live, r)
	}
	for _, group := range packRequests(live, s.cfg.BatchSize) {
		s.dispatchBatch(group)
	}
}

// packRequests splits requests, in arrival order, into dispatch groups
// whose query totals stay within max. A request is atomic — its PSMs
// come back as one contiguous slice of one engine batch — so a single
// request carrying more than max queries forms its own oversized group;
// MaxQueriesPerRequest is the admission-time cap on that case.
func packRequests(reqs []*request, max int) [][]*request {
	var groups [][]*request
	var cur []*request
	total := 0
	for _, r := range reqs {
		if len(cur) > 0 && total+len(r.queries) > max {
			groups = append(groups, cur)
			cur, total = nil, 0
		}
		cur = append(cur, r)
		total += len(r.queries)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// dispatchBatch merges one packed group and runs it on a search worker.
func (s *Server) dispatchBatch(live []*request) {
	if len(live) == 0 {
		return
	}
	// Blocking slot acquisition: see coalesceLoop.
	select {
	case s.sem <- struct{}{}:
	case <-s.baseCtx.Done():
		for _, r := range live {
			r.resp <- response{err: s.baseCtx.Err()}
			s.reqWG.Done()
		}
		return
	}

	total := 0
	for _, r := range live {
		total += len(r.queries)
	}
	merged := make([]spectrum.Experimental, 0, total)
	for _, r := range live {
		merged = append(merged, r.queries...)
	}
	s.batches.Add(1)
	s.batchedQueries.Add(int64(total))

	s.batchWG.Add(1)
	go func() {
		defer s.batchWG.Done()

		// The batch runs under the server's base context but is cancelled
		// early if every member request's context ends first (all clients
		// disconnected or timed out), so abandoned work stops promptly.
		bctx, bcancel := context.WithCancel(s.baseCtx)
		defer bcancel()
		remaining := new(atomic.Int64)
		remaining.Store(int64(len(live)))
		stops := make([]func() bool, len(live))
		for i, r := range live {
			stops[i] = context.AfterFunc(r.ctx, func() {
				if remaining.Add(-1) == 0 {
					bcancel()
				}
			})
		}

		res, err := s.searchFn(bctx, merged)
		bcancel()
		for _, stop := range stops {
			stop()
		}
		// The slot is the search's, not the replies': free it before any
		// member is answered, so /stats (and the router's load(), which
		// reads it) never counts a batch whose every reply is out.
		<-s.sem

		off := 0
		for _, r := range live {
			n := len(r.queries)
			if err != nil {
				r.resp <- response{err: err}
			} else {
				r.resp <- response{psms: res.PSMs[off : off+n]}
			}
			off += n
			s.reqWG.Done()
		}
	}()
}
