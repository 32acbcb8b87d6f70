// Package mpi is a small message-passing runtime that stands in for the
// MPI library used by the original LBDSLIM implementation. It provides
// ranked communicators with blocking tagged point-to-point messaging, gob
// helpers over it and the one collective the engine needs (barrier), over
// two interchangeable transports:
//
//   - an in-process transport (goroutines + shared inboxes), used for
//     virtual clusters, tests and benchmarks;
//   - a TCP transport (length-prefixed frames over a full mesh with a
//     coordinator bootstrap), demonstrating wire-level operation.
//
// Message matching follows MPI semantics: a receive names a source rank
// and a tag, and messages between a pair of ranks are delivered in send
// order per tag.
package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// Tag labels a message class. Tags >= ReservedTagBase are reserved for the
// package's collectives.
type Tag uint16

// ReservedTagBase is the first tag value reserved for internal use.
const ReservedTagBase Tag = 0xFF00

// AnySource may be passed to Recv to accept a message from any rank.
const AnySource = -1

// ErrClosed is returned by operations on a closed communicator.
var ErrClosed = errors.New("mpi: communicator closed")

// ErrPeerClosed is returned by Recv when the named source's connection
// has gone away and no matching message remains: the transport can prove
// nothing more will arrive from that rank, so blocking forever would
// turn a peer failure into a hang. Messages delivered before the close
// are still received first — the error only surfaces once the inbox has
// nothing left from that peer. A failover layer distinguishes it from
// ErrClosed (the local endpoint is gone) to decide who failed.
var ErrPeerClosed = errors.New("mpi: peer connection closed")

// Comm is one rank's endpoint into a communicator of Size() ranks.
// A Comm is intended to be driven by a single goroutine (like an MPI
// process); Send is safe to call concurrently with Recv, but two
// concurrent Recvs on one Comm are not supported.
type Comm interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the communicator.
	Size() int
	// Send delivers data to rank `to` under the given tag. The data slice
	// is copied or fully serialized before Send returns; the caller may
	// reuse it.
	Send(to int, tag Tag, data []byte) error
	// Recv blocks until a message with the given tag arrives from rank
	// `from` (or any rank if from == AnySource) and returns its source and
	// payload.
	Recv(from int, tag Tag) (src int, data []byte, err error)
	// Close tears down the endpoint. Blocked receives return ErrClosed.
	Close() error
}

// message is one queued delivery.
type message struct {
	from int
	tag  Tag
	data []byte
}

// inbox holds undelivered messages for one rank, with (source, tag)
// matching under a condition variable. Both transports deliver into it.
// down marks sources whose links are gone: their queued messages stay
// receivable, but a receive that would otherwise block on one fails with
// ErrPeerClosed.
type inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	closed  bool
	down    map[int]bool
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(m message) error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return ErrClosed
	}
	ib.pending = append(ib.pending, m)
	ib.cond.Broadcast()
	return nil
}

func (ib *inbox) get(from int, tag Tag) (message, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for i, m := range ib.pending {
			if m.tag != tag {
				continue
			}
			if from != AnySource && m.from != from {
				continue
			}
			ib.pending = append(ib.pending[:i], ib.pending[i+1:]...)
			return m, nil
		}
		if ib.closed {
			return message{}, ErrClosed
		}
		// Nothing pending from the named source and its link is gone:
		// nothing can arrive anymore, so fail instead of blocking forever.
		// AnySource receives keep waiting — other links may still deliver.
		if from != AnySource && ib.down[from] {
			return message{}, fmt.Errorf("mpi: recv from rank %d: %w", from, ErrPeerClosed)
		}
		ib.cond.Wait()
	}
}

// markDown records that a source's link is gone and wakes blocked
// receivers so receives naming it can fail fast (see get).
func (ib *inbox) markDown(from int) {
	ib.mu.Lock()
	if ib.down == nil {
		ib.down = make(map[int]bool)
	}
	ib.down[from] = true
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// checkPeer validates a destination rank.
func checkPeer(to, size int) error {
	if to < 0 || to >= size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", to, size)
	}
	return nil
}
