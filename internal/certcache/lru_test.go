package certcache

import (
	"container/list"
	"math/rand/v2"
	"reflect"
	"testing"

	"priste/internal/qp"
)

// listLRU is the reference the table is held to: a container/list and a
// map per shard, sharded by the same hash, evicting the back of the list
// once a shard holds more than perShard entries.
type listLRU struct {
	perShard  int
	shards    [numShards]refShard
	evictions int64
}

type refShard struct {
	ll *list.List // most recently used at the front
	m  map[Key]*list.Element
}

type refEntry struct {
	key Key
	v   verdicts
}

func newListLRU(capacity int) *listLRU {
	r := &listLRU{perShard: (capacity + numShards - 1) / numShards}
	for i := range r.shards {
		r.shards[i] = refShard{ll: list.New(), m: make(map[Key]*list.Element)}
	}
	return r
}

func (r *listLRU) get(k Key) (verdicts, bool) {
	sh := &r.shards[k.hash()%numShards]
	el, ok := sh.m[k]
	if !ok {
		return 0, false
	}
	sh.ll.MoveToFront(el)
	return el.Value.(*refEntry).v, true
}

func (r *listLRU) put(k Key, v verdicts) {
	sh := &r.shards[k.hash()%numShards]
	if el, ok := sh.m[k]; ok {
		sh.ll.MoveToFront(el)
		el.Value.(*refEntry).v = v
		return
	}
	sh.m[k] = sh.ll.PushFront(&refEntry{key: k, v: v})
	for len(sh.m) > r.perShard {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.m, back.Value.(*refEntry).key)
		r.evictions++
	}
}

func (r *listLRU) len() int {
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].m)
	}
	return n
}

// certified are the decisions a cache may hold: accepted, rejected on a
// violated Eq15, and rejected on a violated Eq16 with Eq15 skipped.
var certified = [...]qp.ReleaseDecision{
	okDecision(),
	violatedDecision(),
	{Eq15: qp.Result{Verdict: qp.Skipped}, Eq16: qp.Result{Verdict: qp.Violated}},
}

// cacheOp is one Get, or one Put of certified[dec].
type cacheOp struct {
	put bool
	key Key
	dec int
}

// diffRun applies ops to a Cache and to the reference and fails at the
// first Get result, Len or eviction count on which they disagree.
func diffRun(t testing.TB, capacity int, ops []cacheOp) {
	t.Helper()
	c, ref := New(capacity), newListLRU(capacity)
	for n, op := range ops {
		if op.put {
			c.Put(op.key, certified[op.dec])
			ref.put(op.key, pack(certified[op.dec]))
		} else {
			got, hit := c.Get(op.key)
			want, wantHit := ref.get(op.key)
			if hit != wantHit || (hit && (pack(got) != want || got.Conservative)) {
				t.Fatalf("capacity %d, op %d: Get(%+v) = %+v, %v; reference %+v, %v",
					capacity, n, op.key, got, hit, want.decision(), wantHit)
			}
		}
		if st := c.Stats(); st.Entries != int64(ref.len()) || st.Evictions != ref.evictions {
			t.Fatalf("capacity %d, op %d: %d entries, %d evictions; reference %d, %d",
				capacity, n, st.Entries, st.Evictions, ref.len(), ref.evictions)
		}
	}
}

// TestMatchesListLRU: over random op streams on caches small enough to
// evict, the table returns what a list LRU returns on every Get, and
// holds and evicts the same number of entries after every op. The
// shards of the larger caches grow through several doublings first,
// to 64 slots and to a clamped 100.
func TestMatchesListLRU(t *testing.T) {
	for _, capacity := range []int{1, 64, 300, 4096, 6400} {
		rng := rand.New(rand.NewPCG(uint64(capacity), 7))
		keys := 3*capacity + 16
		ops := make([]cacheOp, 100_000)
		for i := range ops {
			id := rng.IntN(keys)
			ops[i] = cacheOp{
				put: rng.IntN(2) == 0,
				key: Key{Plan: uint64(id % 5), T: id % 13, History: uint64(id) * 0x9e3779b97f4a7c15, Obs: id},
				dec: rng.IntN(len(certified)),
			}
		}
		diffRun(t, capacity, ops)
	}
}

// TestTablesHoldNoPointers: a slot and an index entry contain no
// pointer, so the shards' tables are noscan and the collector never
// marks an entry.
func TestTablesHoldNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	walk("slot", reflect.TypeOf(slot{}))
	index, _ := reflect.TypeOf(shard{}).FieldByName("index")
	walk("index[]", index.Type.Elem())
}

// TestFootprintBound: a filling shard's tables are at most 80 bytes a
// slot for at most twice its entries (or its first 8 slots), and a full
// cache holds its entries in at most 80 bytes each — at the daemon's
// default capacity, and at 100 a shard, where growth must stop short of
// the next power of two.
func TestFootprintBound(t *testing.T) {
	for _, capacity := range []int64{1 << 16, 100 * numShards} {
		c := New(int(capacity))
		for i := 0; i < 3000; i++ {
			c.Put(Key{Plan: 3, History: uint64(i)}, okDecision())
		}
		if st := c.Stats(); st.Bytes > 80*(2*st.Entries+8*numShards) {
			t.Fatalf("%d bytes for %d entries of a filling cache", st.Bytes, st.Entries)
		}
		for i := 3000; i < int(4*capacity); i++ {
			c.Put(Key{Plan: 3, History: uint64(i)}, okDecision())
		}
		st := c.Stats()
		if st.Entries != capacity {
			t.Fatalf("%d entries after overfilling capacity %d", st.Entries, capacity)
		}
		if st.Bytes > 80*capacity {
			t.Fatalf("%d bytes for %d entries: %.1f per entry, bound 80", st.Bytes, capacity, float64(st.Bytes)/float64(capacity))
		}
		t.Logf("%d entries in %d bytes (%.1f per entry)", st.Entries, st.Bytes, float64(st.Bytes)/float64(capacity))
	}
}

// BenchmarkCertCache prices a hit, and a miss followed by the Put that
// evicts, on a full cache of the daemon's default capacity.
func BenchmarkCertCache(b *testing.B) {
	const capacity = 1 << 16
	c := New(capacity)
	next := uint64(0)
	for ; next < 4*capacity; next++ {
		c.Put(Key{History: next}, okDecision())
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		// The last capacity/2 keys put are resident in every shard.
		for i := uint64(0); b.Loop(); i++ {
			if _, ok := c.Get(Key{History: next - 1 - i%(capacity/2)}); !ok {
				b.Fatal("resident key missed")
			}
		}
	})
	b.Run("miss+put-full", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			k := Key{History: next}
			next++
			if _, ok := c.Get(k); ok {
				b.Fatal("fresh key hit")
			}
			c.Put(k, okDecision())
		}
	})
}
