// Package certcache implements the shared certified-release cache: a
// sharded, bounded-LRU map from the identity of one Theorem IV.1 release
// check to its certified qp.ReleaseDecision.
//
// The planar Laplace mechanism (and every other history-independent LPPM)
// emits the same column for a given budget at every timestamp, so the
// certified verdict for a candidate observation is fully determined by
// (plan, event, timestamp, committed (alphaBits, obs) history, candidate
// alphaBits, candidate obs) — the Key below. Thousands of sessions sharing
// one compiled plan therefore repeat each other's QP work exactly, and a
// hit replaces an O(m²) quantifier check plus an O(m²) condition scan
// with one table lookup. Stateful mechanisms (δ-location-set) have
// session-dependent emissions and must bypass the cache entirely.
//
// An entry keeps what a hit is read for — OK and the two verdicts, one
// byte — and Get rebuilds the decision around them. The solver's
// diagnostics (bounds, timings, the maximisers' supports) are dropped at
// Put.
//
// # Layout
//
// The key's FNV-1a hash is computed once per call: its low bits pick one
// of 64 shards, its high 32 bits the entry's home in that shard's index.
// A shard is two flat arrays:
//
//   - slots: a slot is the Key, the verdict byte, the high hash bits and
//     int32 prev/next links that thread the slots into the recency list
//     by number — 64 bytes;
//   - index, a power of two ≥ 2·cap(slots) of int32: slot+1 at each key's
//     position under linear probing, 0 for empty, so the table is at most
//     half full; an evicted key leaves by backward-shift deletion, so no
//     tombstone ever lengthens a probe.
//
// A shard's arrays double as it fills, up to exactly perShard slots, so
// a cache that never fills — every replay workload — holds no more than
// twice what its entries need. Neither array holds a pointer, so the
// garbage collector allocates them as noscan spans and never marks an
// entry, and once a shard is full no Get or Put on it allocates. An
// entry of a full cache of the default 65 536 costs 64 + 2·4 = 72 bytes
// (Stats.Bytes, held under 80 by TestFootprintBound). The map of
// container/list elements this replaced cost about 240 bytes and two
// heap objects per entry.
//
// The replacement order is exactly a list LRU's: Get and Put both make the
// entry most recently used, and a Put of a new key into a full shard
// evicts the shard's least recently used entry and reuses its slot.
// TestMatchesListLRU and FuzzCertCache hold every Get, Len and the
// eviction count to a container/list reference over random op streams.
//
// Unknown (conservative) verdicts are never stored: they encode an
// expired deadline, not a property of the release, and replaying them
// would turn one slow check into a permanent rejection.
package certcache

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

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

// hash mixes the key fields with FNV-1a.
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

// MaxCapacity is the largest capacity New accepts: a shard addresses its
// slots with int32 links.
const MaxCapacity = min(numShards<<30, math.MaxInt)

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

// none ends the recency list.
const none int32 = -1

// slot is one entry and its links in the shard's recency list.
type slot struct {
	key        Key
	prev, next int32  // towards the most / least recently used end
	home       uint32 // the key's hash >> 32; its index position is home & mask
	v          verdicts
}

type shard struct {
	mu         sync.Mutex
	slots      []slot  // len is the entries held; cap reaches perShard
	index      []int32 // slot+1 at each key's probe position; 0 empty
	head, tail int32   // most and least recently used slot
}

// lookup returns the index position of k — or, when k is absent, the
// empty position that ends its probe run — and k's slot, or none. A
// shard that has never been put to has no index and holds nothing.
func (sh *shard) lookup(k Key, home uint32) (uint32, int32) {
	if sh.index == nil {
		return 0, none
	}
	mask := uint32(len(sh.index) - 1)
	for pos := home & mask; ; pos = (pos + 1) & mask {
		e := sh.index[pos]
		if e == 0 {
			return pos, none
		}
		if s := &sh.slots[e-1]; s.home == home && s.key == k {
			return pos, e - 1
		}
	}
}

// unindex deletes slot i's index entry, shifting each later entry of
// its probe run back into the hole when the hole lies on that entry's
// own probe path.
func (sh *shard) unindex(i int32) {
	mask := uint32(len(sh.index) - 1)
	hole := sh.slots[i].home & mask
	for sh.index[hole] != i+1 {
		hole = (hole + 1) & mask
	}
	for pos := hole; ; {
		pos = (pos + 1) & mask
		e := sh.index[pos]
		if e == 0 {
			break
		}
		// Distances are taken backwards from pos: the entry may fill the
		// hole iff its home is no nearer to pos than the hole is.
		if home := sh.slots[e-1].home & mask; (pos-home)&mask >= (pos-hole)&mask {
			sh.index[hole] = e
			hole = pos
		}
	}
	sh.index[hole] = 0
}

func (sh *shard) unlink(i int32) {
	s := &sh.slots[i]
	if s.prev != none {
		sh.slots[s.prev].next = s.next
	} else {
		sh.head = s.next
	}
	if s.next != none {
		sh.slots[s.next].prev = s.prev
	} else {
		sh.tail = s.prev
	}
}

func (sh *shard) pushFront(i int32) {
	s := &sh.slots[i]
	s.prev, s.next = none, sh.head
	if sh.head != none {
		sh.slots[sh.head].prev = i
	} else {
		sh.tail = i
	}
	sh.head = i
}

// grow doubles the shard's tables, to at most perShard slots, and places
// every entry again in the larger index. The recency links are slot
// numbers and carry over unchanged.
func (sh *shard) grow(perShard int) {
	n := min(max(2*cap(sh.slots), 8), perShard)
	sh.slots = append(make([]slot, 0, n), sh.slots...)
	size := 2
	for size < 2*n {
		size <<= 1
	}
	sh.index = make([]int32, size)
	mask := uint32(size - 1)
	for i := range sh.slots {
		pos := sh.slots[i].home & mask
		for sh.index[pos] != 0 {
			pos = (pos + 1) & mask
		}
		sh.index[pos] = int32(i) + 1
	}
}

// touch makes slot i the most recently used.
func (sh *shard) touch(i int32) {
	if sh.head != i {
		sh.unlink(i)
		sh.pushFront(i)
	}
}

// Cache is a sharded, bounded-LRU certified-release cache. Safe for
// concurrent use.
type Cache struct {
	shards   [numShards]shard
	perShard int

	hits, misses, evictions atomic.Int64
}

// New returns a cache bounded to roughly capacity entries (rounded up to
// a whole number per shard). A capacity outside [1, MaxCapacity] panics;
// use a nil *Cache to disable caching.
func New(capacity int) *Cache {
	if capacity <= 0 || capacity > MaxCapacity {
		panic("certcache: capacity must lie in [1, MaxCapacity]")
	}
	c := &Cache{perShard: (capacity + numShards - 1) / numShards}
	for i := range c.shards {
		c.shards[i].head, c.shards[i].tail = none, none
	}
	return c
}

// shardFor returns k's shard and the high hash bits that place k in the
// shard's index.
func (c *Cache) shardFor(k Key) (*shard, uint32) {
	h := k.hash()
	return &c.shards[h%numShards], uint32(h >> 32)
}

// Get returns the cached decision for k, marking it most recently used.
func (c *Cache) Get(k Key) (qp.ReleaseDecision, bool) {
	sh, home := c.shardFor(k)
	sh.mu.Lock()
	_, i := sh.lookup(k, home)
	if i == none {
		sh.mu.Unlock()
		c.misses.Add(1)
		return qp.ReleaseDecision{}, false
	}
	sh.touch(i)
	v := sh.slots[i].v
	sh.mu.Unlock()
	c.hits.Add(1)
	return v.decision(), true
}

// Put stores a decision, growing the shard's tables while it has fewer
// than its share of the capacity and evicting its least recently used
// entry once it is full. Callers must not store Unknown/conservative
// verdicts (see the package comment); Put panics if they do. A rejection
// whose other condition was Skipped is certified and is stored.
func (c *Cache) Put(k Key, dec qp.ReleaseDecision) {
	if dec.Conservative || dec.Eq15.Verdict == qp.Unknown || dec.Eq16.Verdict == qp.Unknown {
		panic("certcache: conservative/Unknown verdicts must not be cached")
	}
	v := pack(dec)
	sh, home := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pos, i := sh.lookup(k, home)
	if i != none {
		sh.slots[i].v = v
		sh.touch(i)
		return
	}
	// Eviction shifts probe runs back and growth rebuilds the index, so
	// both look k's position up again.
	i = int32(len(sh.slots))
	switch {
	case int(i) == c.perShard:
		i = sh.tail
		sh.unlink(i)
		sh.unindex(i)
		c.evictions.Add(1)
		pos, _ = sh.lookup(k, home)
	case int(i) == cap(sh.slots):
		sh.grow(c.perShard)
		pos, _ = sh.lookup(k, home)
		fallthrough
	default:
		sh.slots = sh.slots[:i+1]
	}
	sh.slots[i] = slot{key: k, home: home, v: v}
	sh.index[pos] = i + 1
	sh.pushFront(i)
}

// Len returns the number of cached decisions.
func (c *Cache) Len() int {
	n, _ := c.size()
	return n
}

// size returns the entries held and the bytes of the shards' tables.
func (c *Cache) size() (entries int, bytes int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += len(sh.slots)
		bytes += int64(cap(sh.slots))*int64(unsafe.Sizeof(slot{})) + int64(len(sh.index))*4
		sh.mu.Unlock()
	}
	return entries, bytes
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	// Bytes is the size of the shards' slot and index tables: 72 per
	// entry once a shard is full, at most 80 per slot a filling shard
	// has room for.
	Bytes int64 `json:"bytes"`
}

// Stats returns the lifetime counters and current size.
func (c *Cache) Stats() Stats {
	entries, bytes := c.size()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   int64(entries),
		Bytes:     bytes,
	}
}
