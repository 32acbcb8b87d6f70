package qcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lbe/internal/spectrum"
)

func bytesSize(v []byte) int { return len(v) }

func newTest(maxBytes int64) *Cache[[]byte] {
	return New[[]byte](Config{MaxBytes: maxBytes}, bytesSize)
}

func TestAcquireHitMissFlow(t *testing.T) {
	c := newTest(1 << 20)

	_, f, o := c.Acquire("k")
	if o != Lead {
		t.Fatalf("first Acquire outcome %v, want Lead", o)
	}
	f.Complete([]byte("answer"))

	v, _, o := c.Acquire("k")
	if o != Hit || string(v) != "answer" {
		t.Fatalf("second Acquire = %q, %v; want answer, Hit", v, o)
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v; want 1 hit, 1 miss, 1 entry", st)
	}
	if st.Bytes <= 0 || st.MaxBytes != 1<<20 {
		t.Fatalf("stats bytes %d / max %d", st.Bytes, st.MaxBytes)
	}
}

func TestSingleflightCollapses(t *testing.T) {
	c := newTest(1 << 20)

	_, lead, o := c.Acquire("k")
	if o != Lead {
		t.Fatalf("outcome %v, want Lead", o)
	}

	const waiters = 8
	var wg sync.WaitGroup
	var got atomic.Int64
	for i := 0; i < waiters; i++ {
		_, f, o := c.Acquire("k")
		if o != Wait {
			t.Fatalf("waiter %d outcome %v, want Wait", i, o)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-f.Done()
			if v, ok := f.Result(); ok && string(v) == "once" {
				got.Add(1)
			}
		}()
	}
	lead.Complete([]byte("once"))
	wg.Wait()
	if got.Load() != waiters {
		t.Fatalf("%d waiters got the value, want %d", got.Load(), waiters)
	}
	if st := c.Stats(); st.Collapsed != waiters {
		t.Fatalf("collapsed %d, want %d", st.Collapsed, waiters)
	}
}

// TestAbortDoesNotPoison: an aborting leader (cancelled caller) caches
// nothing, and a waiter can retry, lead, and complete normally.
func TestAbortDoesNotPoison(t *testing.T) {
	c := newTest(1 << 20)

	_, lead, _ := c.Acquire("k")
	_, wait, o := c.Acquire("k")
	if o != Wait {
		t.Fatalf("outcome %v, want Wait", o)
	}
	lead.Abort()
	<-wait.Done()
	if _, ok := wait.Result(); ok {
		t.Fatal("aborted flight delivered a value")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("abort left %d entries", st.Entries)
	}

	// The retry leads and completes; the entry is clean.
	_, f, o := c.Acquire("k")
	if o != Lead {
		t.Fatalf("retry outcome %v, want Lead", o)
	}
	f.Complete([]byte("good"))
	v, _, o := c.Acquire("k")
	if o != Hit || string(v) != "good" {
		t.Fatalf("after retry: %q, %v", v, o)
	}
}

// get looks key up through Acquire, aborting the flight a miss leads.
func get(c *Cache[[]byte], key string) ([]byte, bool) {
	v, f, o := c.Acquire(key)
	if o == Lead {
		f.Abort()
	}
	return v, o == Hit
}

func TestByteBudgetEvictsLRU(t *testing.T) {
	// Budget fits two entries (value 100 + key 2 + overhead 128 = 230).
	c := newTest(2 * 230)
	val := make([]byte, 100)
	c.Put("k0", val)
	c.Put("k1", val)
	if _, ok := get(c, "k0"); !ok {
		t.Fatal("k0 evicted before budget pressure")
	}
	// k0 was just touched, so inserting k2 must evict k1.
	c.Put("k2", val)
	if _, ok := get(c, "k1"); ok {
		t.Fatal("LRU kept k1 over the more recently used k0")
	}
	if _, ok := get(c, "k0"); !ok {
		t.Fatal("recently used k0 was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v; want 1 eviction, 2 entries", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("resident %d exceeds budget %d", st.Bytes, st.MaxBytes)
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := newTest(64)
	c.Put("k", make([]byte, 1024))
	if _, ok := get(c, "k"); ok {
		t.Fatal("value larger than the whole budget was stored")
	}
}

func TestZeroBudgetStoresNothingButCollapses(t *testing.T) {
	c := newTest(0)
	_, lead, o := c.Acquire("k")
	if o != Lead {
		t.Fatalf("outcome %v, want Lead", o)
	}
	_, f, o := c.Acquire("k")
	if o != Wait {
		t.Fatalf("outcome %v, want Wait (singleflight must survive a zero budget)", o)
	}
	lead.Complete([]byte("v"))
	<-f.Done()
	if v, ok := f.Result(); !ok || string(v) != "v" {
		t.Fatalf("waiter got %q, %v", v, ok)
	}
	if _, _, o := c.Acquire("k"); o != Lead {
		t.Fatalf("zero-budget cache answered %v, want Lead (nothing stored)", o)
	}
}

func TestPurgeInvalidatesEverything(t *testing.T) {
	c := newTest(1 << 20)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if n := c.Purge(); n != 5 {
		t.Fatalf("Purge dropped %d, want 5", n)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Invalidated != 5 {
		t.Fatalf("post-purge stats %+v", st)
	}
	if _, ok := get(c, "k0"); ok {
		t.Fatal("purged entry still served")
	}
}

// TestConcurrentAcquire hammers one hot key and a spread of cold keys
// from many goroutines; run under -race in CI.
func TestConcurrentAcquire(t *testing.T) {
	c := newTest(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%7)
				// At most one abort per iteration: every goroutine starts at
				// i=0, so an unconditional abort-on-lead would livelock with
				// no goroutine ever completing the first key.
				aborted := false
				for {
					v, f, o := c.Acquire(key)
					if o == Hit {
						if string(v) != key {
							t.Errorf("hit %q under key %q", v, key)
						}
						break
					}
					if o == Lead {
						if i%31 == 0 && !aborted {
							aborted = true
							f.Abort() // exercise the retry path
							continue
						}
						f.Complete([]byte(key))
						break
					}
					<-f.Done()
					if v, ok := f.Result(); ok {
						if string(v) != key {
							t.Errorf("waited %q under key %q", v, key)
						}
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestKeyerSpectrumCanonicalization(t *testing.T) {
	k := NewKeyer("digest-a", "topk=5")
	base := spectrum.Experimental{
		Scan:        3,
		PrecursorMZ: 500.25,
		Charge:      2,
		Peaks:       []spectrum.Peak{{MZ: 147.11, Intensity: 1}, {MZ: 262.14, Intensity: 0.5}},
	}

	// Scan and retention time do not shape PSMs: same Spectrum key.
	other := base
	other.Scan = 99
	other.RetentionTime = 12.5
	if k.Spectrum(base) != k.Spectrum(other) {
		t.Fatal("Spectrum key depends on scan/retention time")
	}
	// ...but a response cache echoes scans: different Request key.
	if k.Request([]spectrum.Experimental{base}) == k.Request([]spectrum.Experimental{other}) {
		t.Fatal("Request key ignores the scan it must echo")
	}

	// Content changes change the key.
	for name, mut := range map[string]func(*spectrum.Experimental){
		"precursor": func(e *spectrum.Experimental) { e.PrecursorMZ += 0.01 },
		"charge":    func(e *spectrum.Experimental) { e.Charge = 3 },
		"peak mz":   func(e *spectrum.Experimental) { e.Peaks[0].MZ += 0.01 },
		"intensity": func(e *spectrum.Experimental) { e.Peaks[1].Intensity *= 2 },
	} {
		m := base
		m.Peaks = append([]spectrum.Peak(nil), base.Peaks...)
		mut(&m)
		if k.Spectrum(base) == k.Spectrum(m) {
			t.Fatalf("Spectrum key blind to %s change", name)
		}
	}

	// A different serving context (digest or knobs) changes every key.
	if NewKeyer("digest-b", "topk=5").Spectrum(base) == k.Spectrum(base) {
		t.Fatal("key survives a digest change")
	}
	if NewKeyer("digest-a", "topk=10").Spectrum(base) == k.Spectrum(base) {
		t.Fatal("key survives a knob change")
	}
	// Delimiting must keep part concatenations apart.
	if NewKeyer("ab", "c").Spectrum(base) == NewKeyer("a", "bc").Spectrum(base) {
		t.Fatal("keyer parts are not delimited")
	}
}
