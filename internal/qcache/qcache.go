// Package qcache is the serving tier's content-addressed answer cache:
// a byte-budgeted LRU of search results keyed on (canonical spectrum
// hash × store digest), with singleflight collapsing of identical
// in-flight queries.
//
// At the traffic scale the ROADMAP targets, query streams are heavily
// repeated and zipf-skewed, yet the engine happily re-runs the full
// shared-peak counting + hyperscore pipeline for a spectrum it answered
// milliseconds ago. HiCOPS-style overlap arguments say redundant compute
// is the first thing to eliminate, and the communication-lower-bounds
// line of work says to ship top-K answers rather than recompute raw
// results — a result cache keyed on the store digest is exactly that
// principle applied to the serving tier.
//
// Correctness contract: the cache itself never invents or transforms
// values, so a cached answer is byte-identical to an uncached one by
// construction, and a key that embeds the store digest is valid exactly
// as long as that digest — entries computed under a retired digest
// become unreachable (and are evicted by the LRU) the moment the keys
// change. The digest is the cache's only clock — nothing expires by
// time — and Purge exists for the observably-eager version of that
// invalidation.
//
// Singleflight contract: Acquire hands exactly one caller per key the
// Lead outcome; everyone else Waits on the same Flight. The leader must
// resolve the flight with Complete (delivering the value to every
// waiter and filling the cache) or Abort (waking waiters empty-handed so
// one of them can lead a retry). A waiter abandoning its wait — client
// disconnect, deadline — has no effect on the flight or the entry, and
// an aborting leader caches nothing: errors and cancellations cannot
// poison an entry.
package qcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Config sizes a Cache. The byte budget is its one knob: an entry stays
// valid for as long as the digest in its key names the served store.
type Config struct {
	// MaxBytes bounds the resident cache size (keys + values + per-entry
	// overhead). 0 or negative stores nothing — singleflight collapsing
	// still works, the LRU is just permanently empty.
	MaxBytes int64
}

// Outcome is Acquire's three-way result.
type Outcome int

const (
	// Hit: the value was cached; no flight involved.
	Hit Outcome = iota
	// Lead: the caller owns the computation and must Complete or Abort
	// the returned flight on every path.
	Lead
	// Wait: another caller is computing the key; wait on Flight.Done and
	// read Flight.Result, re-Acquiring if the flight aborted.
	Wait
)

// Flight is one in-flight computation of a key's value, shared by the
// leader that computes it and every collapsed waiter.
type Flight[V any] struct {
	cache *Cache[V]
	key   string
	done  chan struct{}
	val   V
	ok    bool
}

// Done is closed once the flight is resolved either way.
func (f *Flight[V]) Done() <-chan struct{} { return f.done }

// Result returns the flight's value and whether it completed; it must
// only be read after Done is closed. ok == false means the leader
// aborted and the caller should re-Acquire.
func (f *Flight[V]) Result() (V, bool) { return f.val, f.ok }

// Complete resolves the flight with a value: the cache entry is filled
// (best effort, within the byte budget) and every waiter receives v.
// Only the leader may call it, exactly once.
func (f *Flight[V]) Complete(v V) { f.cache.resolve(f, v, true) }

// Abort resolves the flight without a value: nothing is cached and
// waiters wake to retry. Only the leader may call it, exactly once.
// Abort is how a cancelled or failed computation stays non-poisonous.
func (f *Flight[V]) Abort() { var zero V; f.cache.resolve(f, zero, false) }

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits        int64 // Acquire found a cached value
	Misses      int64 // Acquire made the caller a leader
	Evictions   int64 // entries dropped by the byte budget
	Collapsed   int64 // Acquire joined an existing flight
	Invalidated int64 // entries dropped by Purge
	Entries     int   // resident entries
	Bytes       int64 // resident bytes (keys + values + overhead)
	MaxBytes    int64 // configured budget
}

// entry is one resident cache line.
type entry[V any] struct {
	key  string
	val  V
	size int64
}

// entryOverhead approximates the per-entry bookkeeping (list element,
// map bucket share, entry struct) charged against the byte budget.
const entryOverhead = 128

// Cache is a content-addressed answer cache: byte-budgeted LRU with
// singleflight. Entries live until the budget evicts them or Purge drops
// them. Safe for concurrent use.
type Cache[V any] struct {
	maxBytes int64
	sizeOf   func(V) int

	mu      sync.Mutex
	ll      *list.List // front = most recently used; values are *entry[V]
	byKey   map[string]*list.Element
	flights map[string]*Flight[V]
	bytes   int64

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	collapsed   atomic.Int64
	invalidated atomic.Int64
}

// New builds a cache. sizeOf reports a value's resident bytes (the key
// and a fixed per-entry overhead are charged on top).
func New[V any](cfg Config, sizeOf func(V) int) *Cache[V] {
	return &Cache[V]{
		maxBytes: cfg.MaxBytes,
		sizeOf:   sizeOf,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		flights:  make(map[string]*Flight[V]),
	}
}

// Acquire is the one lookup entry point. It returns (value, nil, Hit)
// on a cache hit, (zero, flight, Wait) when the key is already being
// computed, and (zero, flight, Lead) when the caller must compute the
// value and resolve the flight.
func (c *Cache[V]) Acquire(key string) (V, *Flight[V], Outcome) {
	c.mu.Lock()
	if v, ok := c.lookupLocked(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return v, nil, Hit
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.collapsed.Add(1)
		var zero V
		return zero, f, Wait
	}
	f := &Flight[V]{cache: c, key: key, done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, f, Lead
}

// Put stores a value directly, bypassing the singleflight machinery.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	c.putLocked(key, v)
	c.mu.Unlock()
}

// resolve finishes a flight: the flight is unregistered, the value is
// cached when ok, and waiters wake.
func (c *Cache[V]) resolve(f *Flight[V], v V, ok bool) {
	c.mu.Lock()
	if c.flights[f.key] == f {
		delete(c.flights, f.key)
	}
	if ok {
		c.putLocked(f.key, v)
	}
	c.mu.Unlock()
	f.val, f.ok = v, ok
	close(f.done)
}

// lookupLocked finds an entry and marks it most recently used. The
// caller holds c.mu.
func (c *Cache[V]) lookupLocked(key string) (V, bool) {
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// putLocked inserts or replaces an entry and evicts from the LRU tail
// until the budget holds. Values larger than the whole budget are not
// stored. The caller holds c.mu.
func (c *Cache[V]) putLocked(key string, v V) {
	if c.maxBytes <= 0 {
		return
	}
	size := int64(c.sizeOf(v)) + int64(len(key)) + entryOverhead
	if size > c.maxBytes {
		return
	}
	if el, ok := c.byKey[key]; ok {
		c.removeLocked(el)
	}
	c.byKey[key] = c.ll.PushFront(&entry[V]{key: key, val: v, size: size})
	c.bytes += size
	for c.bytes > c.maxBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		c.evictions.Add(1)
	}
}

// removeLocked drops one entry. The caller holds c.mu.
func (c *Cache[V]) removeLocked(el *list.Element) {
	en := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.byKey, en.key)
	c.bytes -= en.size
}

// Purge drops every resident entry (in-flight computations are left to
// resolve; their late fills land under keys no current reader asks for
// when the purge was digest-driven) and returns the number dropped.
func (c *Cache[V]) Purge() int {
	c.mu.Lock()
	n := c.ll.Len()
	c.ll.Init()
	c.byKey = make(map[string]*list.Element)
	c.bytes = 0
	c.mu.Unlock()
	c.invalidated.Add(int64(n))
	return n
}

// Stats snapshots the counters and residency gauges.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	entries := c.ll.Len()
	bytes := c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Collapsed:   c.collapsed.Load(),
		Invalidated: c.invalidated.Load(),
		Entries:     entries,
		Bytes:       bytes,
		MaxBytes:    c.maxBytes,
	}
}
