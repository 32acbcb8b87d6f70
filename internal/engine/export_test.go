package engine

import (
	"context"

	"lbe/internal/slm"
	"lbe/internal/spectrum"
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
