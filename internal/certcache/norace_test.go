//go:build !race

package certcache

import "testing"

// TestZeroAllocs: once a shard has its tables, neither a Get (hit or
// miss) nor a Put (overwrite, or a new key evicting the least recently
// used one) allocates. A -race build instruments the paths, so the test
// is built without it.
func TestZeroAllocs(t *testing.T) {
	const capacity = 4096
	c := New(capacity)
	for i := 0; i < 4*capacity; i++ {
		c.Put(Key{History: uint64(i)}, okDecision())
	}
	if st := c.Stats(); st.Entries != capacity || st.Evictions == 0 {
		t.Fatalf("cache not full: %+v", st)
	}
	next := uint64(4 * capacity)
	for name, op := range map[string]func(){
		"get-hit":  func() { c.Get(Key{History: next - 1}) },
		"get-miss": func() { c.Get(Key{History: 1}) },
		"put-new":  func() { c.Put(Key{History: next}, okDecision()); next++ },
		"put-same": func() { c.Put(Key{History: next - 1}, violatedDecision()) },
	} {
		if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
			t.Errorf("%s: %v allocs per op", name, allocs)
		}
	}
}
