package engine

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lbe/internal/mpi"
	"lbe/internal/spectrum"
)

// spyComm is a master endpoint that keeps a decoded copy of every result
// batch it receives, so a test can look at what crossed the wire.
type spyComm struct {
	mpi.Comm
	mu      sync.Mutex
	batches []BatchResult
}

func (s *spyComm) Recv(from int, tag mpi.Tag) (int, []byte, error) {
	src, data, err := s.Comm.Recv(from, tag)
	if err == nil && tag == tagResults {
		var br BatchResult
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&br); err != nil {
			return src, nil, fmt.Errorf("spy: %w", err)
		}
		s.mu.Lock()
		s.batches = append(s.batches, br)
		s.mu.Unlock()
	}
	return src, data, err
}

// TestRankShipsAtMostTopK: a worker rank ships the batches of its one-shard
// session, whose merge has already cut every query to TopK — ties at
// the cut are broken at the rank, by the global peptide index its mapping
// subset gives it, not shipped for the master to break. So with TopK 3 no
// gathered batch carries more than three PSMs for a query, a small
// fraction of the scored candidates crosses the wire, and the merged
// answer is still RunSerial's — also on the all-duplicates database, where
// every cut falls inside a tie.
func TestRankShipsAtMostTopK(t *testing.T) {
	const ranks, topK = 3, 3
	generated, genQueries, _ := testDataset(t, 10, 2, 40)
	dupes, dupeQueries := duplicatesDataset(t)
	for _, tc := range []struct {
		name     string
		peptides []string
		queries  []spectrum.Experimental
		wantDrop bool // the dataset scores enough candidates for the cut to matter
	}{
		{"generated", generated, genQueries, true},
		{"duplicates", dupes, dupeQueries, false},
	} {
		cfg := lightConfig()
		cfg.TopK = topK
		cfg.BatchSize = 7
		serial, err := RunSerial(tc.peptides, tc.queries, cfg)
		if err != nil {
			t.Fatal(err)
		}

		world := mpi.NewWorld(ranks)
		comms := world.Comms()
		spy := &spyComm{Comm: comms[0]}
		comms[0] = spy
		res, err := runOnComms(context.Background(), comms, tc.peptides, tc.queries, cfg)
		world.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireSamePSMs(t, tc.name, res.PSMs, serial.PSMs)

		nb := (len(tc.queries) + cfg.BatchSize - 1) / cfg.BatchSize
		if len(spy.batches) != (ranks-1)*nb {
			t.Fatalf("%s: %d batches gathered, want %d", tc.name, len(spy.batches), (ranks-1)*nb)
		}
		shipped := 0
		for _, br := range spy.batches {
			for q, ms := range br.PSMs {
				if len(ms) > topK {
					t.Fatalf("%s: query %d arrived with %d PSMs, TopK is %d", tc.name, br.Offset+q, len(ms), topK)
				}
				shipped += len(ms)
			}
		}
		var scored int64
		for _, st := range res.Stats[1:] {
			scored += st.Work.Scored
		}
		if tc.wantDrop && int64(shipped)*2 > scored {
			t.Fatalf("%s: %d of %d scored candidates shipped; the dataset gives the cut nothing to drop", tc.name, shipped, scored)
		}
		t.Logf("%s: %d PSMs on the wire from %d workers with TopK=%d, %d candidates scored there (%.1f%%)",
			tc.name, shipped, ranks-1, topK, scored, 100*float64(shipped)/float64(scored))
	}
}

// hangUpComm is a worker endpoint whose master goes away once the first
// result batch has reached it. It counts the result batches the worker
// tried to send, one per batch searched.
type hangUpComm struct {
	mpi.Comm
	master  mpi.Comm
	batches int
}

func (h *hangUpComm) Send(to int, tag mpi.Tag, data []byte) error {
	err := h.Comm.Send(to, tag, data)
	if tag == tagResults {
		h.batches++
		h.master.Close()
	}
	return err
}

// TestWorkerRankStopsWhenSendFails: a worker rank whose master hangs up
// after the first batch returns the send error, and stops searching — the
// batches nobody will receive are not searched just to be dropped.
func TestWorkerRankStopsWhenSendFails(t *testing.T) {
	peptides, queries, _ := testDataset(t, 6, 2, 40)
	cfg := lightConfig()
	cfg.BatchSize = 1 // forty batches owed
	cfg.ThreadsPerRank = 1

	base := runtime.NumGoroutine()
	world := mpi.NewWorld(2)
	defer world.Close()
	barrier := make(chan error, 1)
	go func() { barrier <- mpi.Barrier(world.Comm(0)) }()
	c := &hangUpComm{Comm: world.Comm(1), master: world.Comm(0)}
	_, err := RunRank(context.Background(), c, peptides, queries, cfg)
	if !errors.Is(err, mpi.ErrClosed) {
		t.Fatalf("worker returned %v, want the send error", err)
	}
	if err := <-barrier; err != nil {
		t.Fatal(err)
	}
	if c.batches >= len(queries) {
		t.Fatalf("worker searched %d of %d batches after its master hung up on the second", c.batches, len(queries))
	}
	waitForGoroutines(t, base)
}

// TestMisbehavingRankIsAnError plays the worker ranks of a small world by
// hand against a real master. Whatever arrives off the wire — a batch
// outside the query range, a peptide index outside the database, a list
// out of ComparePSM order, a rank that hangs up early, a rank that sends
// more than it owes — the master returns an error naming rank 1, leaves
// no goroutine parked in a receive, and the world closes cleanly.
func TestMisbehavingRankIsAnError(t *testing.T) {
	peptides, queries, _ := testDataset(t, 4, 1, 10)
	cfg := lightConfig()
	cfg.BatchSize = 4 // three batches owed by every worker
	empty := func(off, n int) BatchResult { return BatchResult{Offset: off, PSMs: make([][]PSM, n)} }
	sendAll := func(c mpi.Comm, brs ...BatchResult) error {
		for _, br := range brs {
			if err := mpi.SendGob(c, 0, tagResults, br); err != nil {
				return err
			}
		}
		return nil
	}

	for _, tc := range []struct {
		name string
		size int
		play func(c mpi.Comm) error // a worker rank, after the barrier
	}{
		{"batch past the last query", 2, func(c mpi.Comm) error {
			// The bad batch comes first; the other two still have to be
			// taken off the wire after the merge has failed.
			return sendAll(c, empty(8, 4), empty(0, 4), empty(4, 4))
		}},
		{"negative offset", 2, func(c mpi.Comm) error {
			if err := sendAll(c, empty(-1, 1)); err != nil {
				return err
			}
			return c.Close()
		}},
		{"peptide outside the database", 2, func(c mpi.Comm) error {
			br := empty(0, 4)
			br.PSMs[2] = []PSM{{Peptide: uint32(len(peptides)), Score: 1}}
			if err := sendAll(c, br); err != nil {
				return err
			}
			return c.Close()
		}},
		{"matches out of ComparePSM order", 2, func(c mpi.Comm) error {
			// Everything it owes, closing report included: only the order
			// of the middle batch's second list is wrong.
			bad := empty(4, 4)
			bad.PSMs[1] = []PSM{{Peptide: 1, Score: 1}, {Peptide: 0, Score: 2}}
			if err := sendAll(c, empty(0, 4), bad, empty(8, 2)); err != nil {
				return err
			}
			return mpi.SendGob(c, 0, tagStats, rankReport{})
		}},
		{"hangs up after one batch of three", 2, func(c mpi.Comm) error {
			if err := sendAll(c, empty(0, 4)); err != nil {
				return err
			}
			return c.Close()
		}},
		{"a fourth batch while two other ranks still owe theirs", 4, func(c mpi.Comm) error {
			if c.Rank() != 1 {
				return nil
			}
			return sendAll(c, empty(0, 4), empty(4, 4), empty(8, 2), empty(0, 4))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			world := mpi.NewWorld(tc.size)
			done := make(chan error, 1)
			go func() {
				_, err := RunRank(context.Background(), world.Comm(0), peptides, queries, cfg)
				done <- err
			}()
			var workers sync.WaitGroup
			for r := 1; r < tc.size; r++ {
				workers.Add(1)
				go func(c mpi.Comm) {
					defer workers.Done()
					if err := mpi.Barrier(c); err != nil {
						t.Error(err)
						return
					}
					if err := tc.play(c); err != nil {
						t.Error(err)
					}
				}(world.Comm(r))
			}
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "rank 1") {
					t.Errorf("master returned %v, want an error naming rank 1", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("master still waiting on the misbehaving rank")
			}
			workers.Wait()
			waitForGoroutines(t, base)
			world.Close()
		})
	}
}
