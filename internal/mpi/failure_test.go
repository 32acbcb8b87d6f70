package mpi

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// TestTCPPeerCloseUnblocksRecv: when a peer tears down, a blocked Recv on
// the closed endpoint must return rather than hang.
func TestTCPPeerCloseUnblocksRecv(t *testing.T) {
	comms, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := comms[1].Recv(0, 1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Recv block
	comms[1].Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Recv after close returned nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after Close")
	}
	comms[0].Close()
}

// TestTCPSendAfterPeerClosedErrors: sends into a torn-down mesh must
// surface an error (possibly after the kernel buffer drains) instead of
// blocking forever.
func TestTCPSendAfterPeerClosedErrors(t *testing.T) {
	comms, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	comms[1].Close()

	payload := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := comms[0].Send(1, 1, payload); err != nil {
			return // expected failure surfaced
		}
	}
	t.Fatal("sends to a closed peer never failed")
}

// TestInprocCloseDuringBarrier: closing the world while ranks sit in a
// barrier must error out all of them.
func TestInprocCloseDuringBarrier(t *testing.T) {
	w := NewWorld(3)
	errs := make(chan error, 2)
	for r := 1; r < 3; r++ {
		go func(r int) {
			errs <- Barrier(w.Comm(r))
		}(r)
	}
	time.Sleep(20 * time.Millisecond)
	w.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("barrier survived a closed world")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("barrier did not unblock after Close")
		}
	}
}

// TestCollectiveErrorPropagation: the barrier hands back the transport's
// error on an endpoint that is already closed, at the master (which
// receives first) and at a worker (which sends first).
func TestCollectiveErrorPropagation(t *testing.T) {
	w := NewWorld(2)
	w.Close()
	for r := 0; r < 2; r++ {
		if err := Barrier(w.Comm(r)); !errors.Is(err, ErrClosed) {
			t.Errorf("rank %d barrier on a closed world = %v, want ErrClosed", r, err)
		}
	}
}

// TestDoubleCloseIsSafe: Close must be idempotent on both transports.
func TestDoubleCloseIsSafe(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(0)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w.Close()

	comms, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comms {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPRecvUnblocksWhenPeerClosesMidSend is the transport-level
// failover edge under the router's replica-kill scenario: rank 1 dies
// mid-frame (header promising more payload than ever arrives — exactly
// what interrupting a large SendGob leaves on the wire), and rank 0's
// blocked Recv from it must surface ErrPeerClosed instead of hanging on
// a message that can never complete.
func TestTCPRecvUnblocksWhenPeerClosesMidSend(t *testing.T) {
	comms, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := comms[0].Recv(1, 7)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Recv block

	// Write a truncated frame by hand: a header promising 1<<20 payload
	// bytes, a few real ones, then the close that a peer crash delivers.
	c1 := comms[1].(*tcpComm)
	conn := c1.conns[0]
	hdr := make([]byte, 6)
	binary.LittleEndian.PutUint32(hdr[0:], 1<<20)
	binary.LittleEndian.PutUint16(hdr[4:], 7)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	comms[1].Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerClosed) {
			t.Errorf("Recv after mid-send peer close returned %v, want ErrPeerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock after the peer closed mid-send")
	}
}

// TestTCPRecvDrainsBeforePeerClosedError: messages delivered before the
// peer went away are still received in order; only the receive that
// would block forever fails.
func TestTCPRecvDrainsBeforePeerClosedError(t *testing.T) {
	comms, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()

	if err := SendGob(comms[1], 0, 9, "farewell"); err != nil {
		t.Fatal(err)
	}
	comms[1].Close()

	// The delivered message must surface even though the peer is gone by
	// the time we ask (poll: delivery and close race benignly).
	deadline := time.Now().Add(5 * time.Second)
	var got string
	for {
		_, err := RecvGob(comms[0], 1, 9, &got)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("unexpected error before drain: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("pending message never delivered after peer close")
		}
		time.Sleep(time.Millisecond)
	}
	if got != "farewell" {
		t.Fatalf("got %q", got)
	}

	// With the inbox drained, the next receive must fail, not hang.
	errCh := make(chan error, 1)
	go func() {
		_, _, err := comms[0].Recv(1, 9)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPeerClosed) {
			t.Errorf("post-drain Recv returned %v, want ErrPeerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-drain Recv did not unblock")
	}
}

// TestTCPAnySourceRecvStillWaitsAfterOnePeerCloses: AnySource receives
// must not fail just because one of several peers went away — the
// others may still deliver.
func TestTCPAnySourceRecvStillWaitsAfterOnePeerCloses(t *testing.T) {
	comms, err := NewTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	defer comms[2].Close()

	comms[1].Close()
	time.Sleep(20 * time.Millisecond) // let rank 0 notice the dead link

	got := make(chan error, 1)
	go func() {
		src, data, err := comms[0].Recv(AnySource, 4)
		if err == nil && (src != 2 || string(data) != "alive") {
			err = errors.New("wrong message")
		}
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := comms[2].Send(0, 4, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("AnySource receive failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AnySource receive never completed")
	}
}

// TestInprocPeerCloseUnblocksRecv: the in-process transport honors the
// same peer-down contract as TCP — a Recv naming a closed peer drains
// delivered messages, then fails with ErrPeerClosed instead of hanging.
func TestInprocPeerCloseUnblocksRecv(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()

	if err := w.Comm(1).Send(0, 3, []byte("bye")); err != nil {
		t.Fatal(err)
	}
	w.Comm(1).Close()

	if _, data, err := w.Comm(0).Recv(1, 3); err != nil || string(data) != "bye" {
		t.Fatalf("pending message not drained after peer close: %q, %v", data, err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := w.Comm(0).Recv(1, 3)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerClosed) {
			t.Errorf("Recv from closed in-process peer returned %v, want ErrPeerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv from closed in-process peer did not unblock")
	}
}
