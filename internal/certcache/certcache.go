// Package certcache implements the shared certified-release cache: a
// sharded, bounded-LRU map from the identity of one Theorem IV.1 release
// check to its certified qp.ReleaseDecision.
//
// An entry keeps what a hit is read for — OK and the two verdicts, one
// byte — and Get rebuilds the decision around them. The solver's
// diagnostics (bounds, node counts, two BestPi vectors of m floats each)
// are dropped at Put: nothing reads them back, and at 65 536 entries they
// were most of a serving process's heap.
//
// The planar Laplace mechanism (and every other history-independent LPPM)
// emits the same column for a given budget at every timestamp, so the
// certified verdict for a candidate observation is fully determined by
// (plan, event, timestamp, committed (alphaBits, obs) history, candidate
// alphaBits, candidate obs) — the Key below. Thousands of sessions sharing
// one compiled plan therefore repeat each other's QP work exactly, and a
// hit replaces an O(m²) quantifier check plus an O(m²) condition scan
// with one map lookup. Stateful mechanisms (δ-location-set) have
// session-dependent emissions and must bypass the cache entirely.
//
// Unknown (conservative) verdicts are never stored: they encode an
// expired deadline, not a property of the release, and replaying them
// would turn one slow check into a permanent rejection.
package certcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"priste/internal/qp"
)

// Key identifies one release check under a shared plan. History is the
// rolling fingerprint of the committed (alphaBits, obs) pairs maintained
// by world.Quantifier; AlphaBits is math.Float64bits of the candidate
// budget (0 for the uniform fallback column).
type Key struct {
	Plan      uint64
	Event     int
	T         int
	History   uint64
	AlphaBits uint64
	Obs       int
}

// hash mixes the key fields with FNV-1a for shard selection.
func (k Key) hash() uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	for _, w := range [...]uint64{k.Plan, uint64(k.Event), uint64(k.T), k.History, k.AlphaBits, uint64(k.Obs)} {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (w >> shift) & 0xff
			h *= prime
		}
	}
	return h
}

// numShards stripes the cache's mutexes so concurrent sessions do not
// serialise on one lock.
const numShards = 64

type entry struct {
	key Key
	v   verdicts
}

// verdicts packs a certified decision: Eq15's verdict in bits 0–1, Eq16's
// in bits 2–3, OK in bit 4. Conservative is never stored.
type verdicts uint8

func pack(dec qp.ReleaseDecision) verdicts {
	v := verdicts(dec.Eq15.Verdict) | verdicts(dec.Eq16.Verdict)<<2
	if dec.OK {
		v |= 1 << 4
	}
	return v
}

func (v verdicts) decision() qp.ReleaseDecision {
	return qp.ReleaseDecision{
		OK:   v&(1<<4) != 0,
		Eq15: qp.Result{Verdict: qp.Verdict(v & 3)},
		Eq16: qp.Result{Verdict: qp.Verdict(v >> 2 & 3)},
	}
}

type shard struct {
	mu      sync.Mutex
	ll      *list.List // most recently used at the front
	entries map[Key]*list.Element
}

// Cache is a sharded, bounded-LRU certified-release cache. Safe for
// concurrent use.
type Cache struct {
	shards   [numShards]shard
	perShard int

	hits, misses, evictions atomic.Int64
}

// New returns a cache bounded to roughly capacity entries (rounded up to
// a whole number per shard). A non-positive capacity panics; use a nil
// *Cache to disable caching.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic("certcache: capacity must be positive")
	}
	per := (capacity + numShards - 1) / numShards
	c := &Cache{perShard: per}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].entries = make(map[Key]*list.Element)
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[k.hash()%numShards]
}

// Get returns the cached decision for k, marking it most recently used.
func (c *Cache) Get(k Key) (qp.ReleaseDecision, bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	el, ok := sh.entries[k]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return qp.ReleaseDecision{}, false
	}
	sh.ll.MoveToFront(el)
	v := el.Value.(*entry).v
	sh.mu.Unlock()
	c.hits.Add(1)
	return v.decision(), true
}

// Put stores a decision, evicting the shard's least recently used entry
// beyond capacity. Callers must not store Unknown/conservative verdicts
// (see the package comment); Put panics if they do. A rejection whose
// other condition was Skipped is certified and is stored.
func (c *Cache) Put(k Key, dec qp.ReleaseDecision) {
	if dec.Conservative || dec.Eq15.Verdict == qp.Unknown || dec.Eq16.Verdict == qp.Unknown {
		panic("certcache: conservative/Unknown verdicts must not be cached")
	}
	v := pack(dec)
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[k]; ok {
		sh.ll.MoveToFront(el)
		el.Value.(*entry).v = v
		return
	}
	sh.entries[k] = sh.ll.PushFront(&entry{key: k, v: v})
	for len(sh.entries) > c.perShard {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.entries, back.Value.(*entry).key)
		c.evictions.Add(1)
	}
}

// Range calls f for every cached (key, decision) pair until f returns
// false. Iteration holds one shard lock at a time and visits shards in
// order; entries inserted or evicted concurrently may or may not be
// seen. Used by the persistence layer to warm-save the cache.
func (c *Cache) Range(f func(Key, qp.ReleaseDecision) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			if !f(e.key, e.v.decision()) {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
	}
}

// Len returns the number of cached decisions.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
}

// Stats returns the lifetime counters and current size.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   int64(c.Len()),
	}
}
