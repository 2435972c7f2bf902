package certcache

import (
	"sync"
	"testing"

	"priste/internal/qp"
)

func okDecision() qp.ReleaseDecision {
	return qp.ReleaseDecision{
		OK:   true,
		Eq15: qp.Result{Verdict: qp.Satisfied},
		Eq16: qp.Result{Verdict: qp.Satisfied},
	}
}

func violatedDecision() qp.ReleaseDecision {
	return qp.ReleaseDecision{
		Eq15: qp.Result{Verdict: qp.Violated},
		Eq16: qp.Result{Verdict: qp.Satisfied},
	}
}

func TestGetPut(t *testing.T) {
	c := New(1024)
	k := Key{Plan: 1, Event: 0, T: 3, History: 42, AlphaBits: 7, Obs: 5}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, okDecision())
	dec, ok := c.Get(k)
	if !ok || !dec.OK {
		t.Fatalf("lost stored decision: ok=%v dec=%+v", ok, dec)
	}
	// A differing field in the key must miss.
	for _, other := range []Key{
		{Plan: 2, Event: 0, T: 3, History: 42, AlphaBits: 7, Obs: 5},
		{Plan: 1, Event: 1, T: 3, History: 42, AlphaBits: 7, Obs: 5},
		{Plan: 1, Event: 0, T: 4, History: 42, AlphaBits: 7, Obs: 5},
		{Plan: 1, Event: 0, T: 3, History: 43, AlphaBits: 7, Obs: 5},
		{Plan: 1, Event: 0, T: 3, History: 42, AlphaBits: 8, Obs: 5},
		{Plan: 1, Event: 0, T: 3, History: 42, AlphaBits: 7, Obs: 6},
	} {
		if _, ok := c.Get(other); ok {
			t.Fatalf("key %+v unexpectedly hit", other)
		}
	}
	c.Put(k, violatedDecision())
	if dec, _ := c.Get(k); dec.OK {
		t.Fatal("overwrite did not take")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits < 2 || st.Misses < 7 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSkippedRejectionStored: a rejection settled by one violated
// condition, the other Skipped, is a certified verdict: it is stored and
// read back as the same rejection, without the solver's diagnostics.
func TestSkippedRejectionStored(t *testing.T) {
	c := New(64)
	for i, dec := range []qp.ReleaseDecision{
		{Eq15: qp.Result{Verdict: qp.Violated, Lower: 0.3, BestPi: []float64{1, 0}}, Eq16: qp.Result{Verdict: qp.Skipped}},
		{Eq15: qp.Result{Verdict: qp.Skipped}, Eq16: qp.Result{Verdict: qp.Violated}},
		okDecision(),
	} {
		k := Key{Plan: 1, Obs: i}
		c.Put(k, dec)
		got, ok := c.Get(k)
		if !ok || got.OK != dec.OK || got.Conservative ||
			got.Eq15.Verdict != dec.Eq15.Verdict || got.Eq16.Verdict != dec.Eq16.Verdict {
			t.Fatalf("stored %+v, read back %+v (hit %v)", dec, got, ok)
		}
		if got.Eq15.BestPi != nil || got.Eq15.Lower != 0 {
			t.Fatalf("entry kept solver diagnostics: %+v", got.Eq15)
		}
	}
	// Range hands out the same rebuilt decisions (it holds the shard lock,
	// so compare after it returns).
	ranged := map[Key]qp.ReleaseDecision{}
	c.Range(func(k Key, dec qp.ReleaseDecision) bool {
		ranged[k] = dec
		return true
	})
	if len(ranged) != 3 {
		t.Fatalf("Range visited %d of 3 entries", len(ranged))
	}
	for k, dec := range ranged {
		if want, _ := c.Get(k); dec.OK != want.OK || dec.Eq15.Verdict != want.Eq15.Verdict || dec.Eq16.Verdict != want.Eq16.Verdict {
			t.Fatalf("Range and Get disagree on %+v", k)
		}
	}
}

func TestUnknownRejected(t *testing.T) {
	c := New(64)
	defer func() {
		if recover() == nil {
			t.Fatal("conservative decision accepted")
		}
	}()
	c.Put(Key{}, qp.ReleaseDecision{
		Conservative: true,
		Eq15:         qp.Result{Verdict: qp.Unknown},
		Eq16:         qp.Result{Verdict: qp.Unknown},
	})
}

func TestBoundedLRU(t *testing.T) {
	// numShards entries per shard max → capacity numShards means one per
	// shard; flooding far beyond capacity must evict, not grow.
	c := New(numShards)
	const n = 10 * numShards
	for i := 0; i < n; i++ {
		c.Put(Key{Plan: uint64(i)}, okDecision())
	}
	if got := c.Len(); got > numShards {
		t.Fatalf("cache grew to %d entries, capacity %d", got, numShards)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Plan: uint64(i % 64), T: g}
				c.Put(k, okDecision())
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("empty after concurrent fills")
	}
}
