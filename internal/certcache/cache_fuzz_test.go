package certcache

import "testing"

// FuzzCertCache decodes an op stream from the input and runs it against
// the list-LRU reference (diffRun): the table must never panic and must
// agree on every Get, Len and eviction count. The first byte sizes the
// cache at 1–256 entries, so most streams evict; each op is two bytes,
// the first choosing Get or Put and the decision, the second the key
// among 256.
func FuzzCertCache(f *testing.F) {
	f.Add([]byte{0, 1, 7, 1, 9, 0, 7, 0, 9})
	f.Add([]byte{63, 1, 1, 3, 2, 5, 3, 0, 1, 0, 2, 0, 3})
	f.Add([]byte{255, 1, 200, 3, 201, 5, 202, 0, 200, 0, 201})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0])
		var ops []cacheOp
		for b := data[1:]; len(b) >= 2; b = b[2:] {
			id := int(b[1])
			ops = append(ops, cacheOp{
				put: b[0]&1 != 0,
				key: Key{Plan: uint64(id & 3), T: id >> 2 & 7, History: uint64(id>>5) * 0x9e3779b97f4a7c15, Obs: id},
				dec: int(b[0]>>1) % len(certified),
			})
		}
		diffRun(t, capacity, ops)
	})
}
