package engine

import (
	"context"

	"lbe/internal/sched"
	"lbe/internal/slm"
	"lbe/internal/spectrum"
)

// The store's file names, format version and write buffer, for the tests
// that tamper with a saved store.
const (
	ManifestFile       = manifestFile
	PeptidesFile       = peptidesFile
	StoreFormatVersion = storeFormatVersion
	StoreWriteBuffer   = storeWriteBuffer
)

// SearchCells runs qs through the session's scheduler as Search does and
// returns the (shard, query) cells it would merge, unmerged.
func (s *Session) SearchCells(ctx context.Context, qs []spectrum.Experimental) ([][][]slm.Match, error) {
	s.mu.Lock()
	shards, pool := s.shards, s.pool
	s.mu.Unlock()
	sr, err := pool.Run(ctx, shards, new(queryBuffers).prepare(qs, s.shape.Params))
	if err != nil {
		return nil, err
	}
	return sr.Matches, nil
}

// MergeCells is the merge Search runs over SearchCells' cells.
func (s *Session) MergeCells(cells [][][]slm.Match, nq int) ([][]PSM, error) {
	return s.merge(cells, nq)
}

// WaitRowViews blocks until the session's background row-view build, if
// one was started, has stopped, and reports whether one was started.
func (s *Session) WaitRowViews() bool {
	s.mu.Lock()
	done, started := s.viewDone, s.viewStop != nil
	s.mu.Unlock()
	if done != nil {
		<-done
	}
	return started
}

// Each is each: the batch loop under Search, emit seeing every batch.
func (s *Session) Each(ctx context.Context, qs []spectrum.Experimental, emit func(BatchResult) error) error {
	return s.each(ctx, qs, emit)
}

// NeedsRowViews reports, per shard, whether it still lacks its row view.
func (s *Session) NeedsRowViews() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]bool, len(s.shards))
	for m, ix := range s.shards {
		out[m] = ix.NeedsRowView()
	}
	return out
}

// Pool is the scheduler pool the next search will run on.
func (s *Session) Pool() *sched.Pool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool
}

// MappingLen is the number of entries in the session's mapping table.
func (s *Session) MappingLen() int { return s.table.Len() }
