package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// transports enumerates the two implementations under a common harness.
var transports = []struct {
	name string
	make func(t *testing.T, size int) []Comm
}{
	{"inproc", func(t *testing.T, size int) []Comm {
		w := NewWorld(size)
		t.Cleanup(w.Close)
		return w.Comms()
	}},
	{"tcp", func(t *testing.T, size int) []Comm {
		comms, err := NewTCPCluster(size)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			for _, c := range comms {
				c.Close()
			}
		})
		return comms
	}},
}

// runRanks executes fn concurrently on every rank and fails the test on
// any per-rank error.
func runRanks(t *testing.T, comms []Comm, fn func(c Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(comms))
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(comms[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			comms := tr.make(t, 2)
			runRanks(t, comms, func(c Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 7, []byte("hello"))
				}
				src, data, err := c.Recv(0, 7)
				if err != nil {
					return err
				}
				if src != 0 || string(data) != "hello" {
					return fmt.Errorf("got src=%d data=%q", src, data)
				}
				return nil
			})
		})
	}
}

func TestSendOrderPreservedPerTag(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			comms := tr.make(t, 2)
			const n = 100
			runRanks(t, comms, func(c Comm) error {
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < n; i++ {
					_, data, err := c.Recv(0, 3)
					if err != nil {
						return err
					}
					if data[0] != byte(i) {
						return fmt.Errorf("message %d out of order: got %d", i, data[0])
					}
				}
				return nil
			})
		})
	}
}

func TestTagMatching(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			comms := tr.make(t, 2)
			runRanks(t, comms, func(c Comm) error {
				if c.Rank() == 0 {
					// Send tag 2 first, then tag 1: receiver asks for tag 1
					// first and must skip past the tag-2 message.
					if err := c.Send(1, 2, []byte("two")); err != nil {
						return err
					}
					return c.Send(1, 1, []byte("one"))
				}
				_, d1, err := c.Recv(0, 1)
				if err != nil {
					return err
				}
				_, d2, err := c.Recv(0, 2)
				if err != nil {
					return err
				}
				if string(d1) != "one" || string(d2) != "two" {
					return fmt.Errorf("tag matching failed: %q %q", d1, d2)
				}
				return nil
			})
		})
	}
}

func TestAnySource(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			comms := tr.make(t, 4)
			runRanks(t, comms, func(c Comm) error {
				if c.Rank() != 0 {
					return c.Send(0, 5, []byte{byte(c.Rank())})
				}
				seen := map[int]bool{}
				for i := 0; i < 3; i++ {
					src, data, err := c.Recv(AnySource, 5)
					if err != nil {
						return err
					}
					if int(data[0]) != src {
						return fmt.Errorf("payload %d does not match src %d", data[0], src)
					}
					seen[src] = true
				}
				if len(seen) != 3 {
					return fmt.Errorf("expected 3 distinct sources, got %v", seen)
				}
				return nil
			})
		})
	}
}

func TestSendErrors(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			comms := tr.make(t, 2)
			if err := comms[0].Send(5, 1, nil); err == nil {
				t.Error("send to out-of-range rank must fail")
			}
			if err := comms[0].Send(-1, 1, nil); err == nil {
				t.Error("send to negative rank must fail")
			}
			if _, _, err := comms[0].Recv(9, 1); err == nil {
				t.Error("recv from out-of-range rank must fail")
			}
		})
	}
}

func TestSelfSend(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			comms := tr.make(t, 2)
			c := comms[0]
			if err := c.Send(0, 9, []byte("self")); err != nil {
				t.Fatal(err)
			}
			src, data, err := c.Recv(0, 9)
			if err != nil {
				t.Fatal(err)
			}
			if src != 0 || string(data) != "self" {
				t.Errorf("self-send got src=%d data=%q", src, data)
			}
		})
	}
}

func TestSenderMayReuseBuffer(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			comms := tr.make(t, 2)
			runRanks(t, comms, func(c Comm) error {
				if c.Rank() == 0 {
					buf := []byte("aaaa")
					if err := c.Send(1, 1, buf); err != nil {
						return err
					}
					copy(buf, "bbbb") // must not corrupt the in-flight message
					return c.Send(1, 1, buf)
				}
				_, d1, err := c.Recv(0, 1)
				if err != nil {
					return err
				}
				_, d2, err := c.Recv(0, 1)
				if err != nil {
					return err
				}
				if string(d1) != "aaaa" || string(d2) != "bbbb" {
					return fmt.Errorf("buffer aliasing: %q %q", d1, d2)
				}
				return nil
			})
		})
	}
}

func TestRecvAfterCloseReturns(t *testing.T) {
	w := NewWorld(2)
	done := make(chan error, 1)
	go func() {
		_, _, err := w.Comm(1).Recv(0, 1)
		done <- err
	}()
	w.Close()
	if err := <-done; err != ErrClosed {
		t.Errorf("recv after close = %v, want ErrClosed", err)
	}
	if err := w.Comm(0).Send(1, 1, nil); err != ErrClosed {
		t.Errorf("send to closed = %v, want ErrClosed", err)
	}
}

func TestBarrier(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			comms := tr.make(t, 4)
			var mu sync.Mutex
			phase := make([]int, 4)
			// Run 5 consecutive barriers; after each, every rank must
			// observe all ranks at the same phase or later.
			runRanks(t, comms, func(c Comm) error {
				for p := 1; p <= 5; p++ {
					mu.Lock()
					phase[c.Rank()] = p
					mu.Unlock()
					if err := Barrier(c); err != nil {
						return err
					}
					mu.Lock()
					for r, ph := range phase {
						if ph < p {
							mu.Unlock()
							return fmt.Errorf("after barrier %d, rank %d still at %d", p, r, ph)
						}
					}
					mu.Unlock()
				}
				return nil
			})
		})
	}
}

func TestBarrierSingleRank(t *testing.T) {
	w := NewWorld(1)
	defer w.Close()
	if err := Barrier(w.Comm(0)); err != nil {
		t.Fatal(err)
	}
}

func TestGobRoundTrip(t *testing.T) {
	type payload struct {
		Name   string
		Values []float64
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			comms := tr.make(t, 2)
			runRanks(t, comms, func(c Comm) error {
				if c.Rank() == 0 {
					return SendGob(c, 1, 11, payload{Name: "x", Values: []float64{1, 2.5}})
				}
				var p payload
				src, err := RecvGob(c, 0, 11, &p)
				if err != nil {
					return err
				}
				if src != 0 || p.Name != "x" || len(p.Values) != 2 || p.Values[1] != 2.5 {
					return fmt.Errorf("gob payload = %+v", p)
				}
				return nil
			})
		})
	}
}

func TestLargeMessageTCP(t *testing.T) {
	comms, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	runRanks(t, comms, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, big)
		}
		_, data, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if len(data) != len(big) {
			return fmt.Errorf("len = %d", len(data))
		}
		for i := 0; i < len(big); i += 97 {
			if data[i] != big[i] {
				return fmt.Errorf("corruption at %d", i)
			}
		}
		return nil
	})
}

func TestHostJoinTCPBootstrap(t *testing.T) {
	const size = 3
	addr := "127.0.0.1:39471"
	comms := make([]Comm, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	wg.Add(size)
	go func() {
		defer wg.Done()
		c, err := HostTCP(addr, size)
		comms[0], errs[0] = c, err
	}()
	for i := 1; i < size; i++ {
		go func(i int) {
			defer wg.Done()
			c, err := JoinTCP(addr)
			if err == nil {
				comms[c.Rank()] = c
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("bootstrap %d: %v", i, err)
		}
	}
	defer func() {
		for _, c := range comms {
			if c != nil {
				c.Close()
			}
		}
	}()
	// Verify the mesh: a barrier crosses every link to and from rank 0,
	// a ring of gob messages the links between the joiners.
	runRanks(t, comms, func(c Comm) error {
		if err := Barrier(c); err != nil {
			return err
		}
		if err := SendGob(c, (c.Rank()+1)%size, 21, c.Rank()); err != nil {
			return err
		}
		prev := (c.Rank() + size - 1) % size
		var got int
		if _, err := RecvGob(c, prev, 21, &got); err != nil {
			return err
		}
		if got != prev {
			return fmt.Errorf("ring over bootstrap mesh delivered %d from rank %d", got, prev)
		}
		return nil
	})
}

func TestNewWorldPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) should panic")
		}
	}()
	NewWorld(0)
}

func TestNewTCPClusterInvalidSize(t *testing.T) {
	if _, err := NewTCPCluster(0); err == nil {
		t.Error("size 0 must fail")
	}
}
