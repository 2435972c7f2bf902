package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: log-linear (HDR-style) buckets. Values
// 0..histSub-1 land in exact unit buckets; above that each power-of-two
// octave is subdivided into histSub linear sub-buckets, so the relative
// quantization error is bounded by 1/histSub (12.5%). Observations are
// int64 nanoseconds; the layout covers the full non-negative int64 range
// (max exponent 62) with 488 buckets (~4 KB of counters per histogram).
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave
	histBuckets = (63-histSubBits)*histSub + histSub
)

// Histogram is a fixed-size, lock-free latency histogram: every Observe
// is two-three atomic adds, so it can sit on the hot step path, and two
// histograms with identical geometry merge by adding counters — unlike
// the sampled sort-the-window quantiles it replaces, a snapshot never
// locks writers or allocates per observation.
//
// The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps a non-negative value onto its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := uint(bits.Len64(u) - 1) // e >= histSubBits
	sub := (u >> (e - histSubBits)) & (histSub - 1)
	return int(e-histSubBits)*histSub + histSub + int(sub)
}

// bucketRange returns the inclusive value range [lo, hi] of bucket i.
func bucketRange(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i)
	}
	shift := uint(i/histSub - 1)
	lo = int64(uint64(histSub+i%histSub) << shift)
	return lo, lo + int64(uint64(1)<<shift) - 1
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one observation in nanoseconds.
func (h *Histogram) ObserveNanos(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observation in nanoseconds (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) in
// nanoseconds: the midpoint of the bucket holding the rank, so the
// estimate is within the bucket geometry's 12.5% relative error of the
// exact order statistic. Returns 0 on an empty histogram. The walk reads
// live counters without locking; concurrent observers can make the
// result approximate, never inconsistent.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: the smallest value with at least ⌈q·n⌉ observations
	// at or below it. (Flooring q·(n−1) instead would send q=0.99 at
	// n=2 to the minimum.)
	rank := int64(math.Ceil(q*float64(total))) - 1
	if rank < 0 {
		rank = 0
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)/2
		}
	}
	lo, hi := bucketRange(histBuckets - 1)
	return lo + (hi-lo)/2
}

// Merge folds other's counters into h. Both histograms share one
// geometry, so merging is exact — the property that lets per-shard or
// per-transport histograms aggregate without re-observing.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range other.buckets {
		if c := other.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
}

// expoBounds are the upper bounds (nanoseconds) of the Prometheus
// exposition buckets: powers of two from ~1µs to ~17s. The fine internal
// buckets subdivide octaves, so they never straddle an exposition bound
// and the cumulative counts are exact.
var expoBounds = func() []int64 {
	var b []int64
	for e := uint(10); e <= 34; e++ { // 1.024µs .. ~17.2s
		b = append(b, int64(uint64(1)<<e))
	}
	return b
}()

// cumulative returns the exposition-bucket cumulative counts matching
// expoBounds, plus the total count and sum. Used by the Prometheus text
// renderer.
func (h *Histogram) cumulative() (counts []int64, total, sum int64) {
	counts = make([]int64, len(expoBounds))
	fine := make([]int64, histBuckets)
	for i := range fine {
		fine[i] = h.buckets[i].Load()
		total += fine[i]
	}
	var acc int64
	fi := 0
	for bi, bound := range expoBounds {
		for fi < histBuckets {
			_, hi := bucketRange(fi)
			if hi > bound {
				break
			}
			acc += fine[fi]
			fi++
		}
		counts[bi] = acc
	}
	return counts, total, h.sum.Load()
}
