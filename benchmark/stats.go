package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted slice: the smallest element with at least p·n
// elements at or below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(n))) - 1
	return sorted[min(max(k, 0), n-1)]
}

// median returns the middle value (mean of the middle two for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quietWindow returns the value of the window that ranks at the edge of
// the better quarter of the windows of a phase: the third best of ten.
// Interference from outside the process — on the contract box, stretches
// of a few seconds in which the CPUs run 30 % slower — only ever makes a
// window worse, and can spoil up to seven windows of ten without moving
// this value, where a median gives way at five; a change to the program
// moves every window and this value with them.
func quietWindow(xs []float64, higherIsBetter bool) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if higherIsBetter {
		return s[n-1-n/4]
	}
	return s[n/4]
}

// windowQuantiles cuts xs — in the order given, which for latencies is
// completion order — into windows contiguous windows of equal count (the
// remainder goes to the first windows) and returns the p-quantile of
// each. One stall lands in one window; a tail that moves everywhere
// moves every window.
func windowQuantiles(xs []float64, windows int, p float64) []float64 {
	windows = min(windows, len(xs))
	qs := make([]float64, 0, windows)
	lo := 0
	for w := 0; w < windows; w++ {
		hi := lo + len(xs)/windows
		if w < len(xs)%windows {
			hi++
		}
		qs = append(qs, percentile(sortedCopy(xs[lo:hi]), p))
		lo = hi
	}
	return qs
}

// iqrShare returns the distance between the first and third quartile of
// xs as a share of its median, the quartiles cut the way Python's
// statistics.quantiles(xs, n=4) ("exclusive" method) cuts them — the
// spread the driver of this benchmark computes.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(i int) float64 { // i-th of the 4-quantile cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
