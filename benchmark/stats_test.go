package main

import (
	"math"
	"slices"
	"testing"
)

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 0.5, 5},
		{ten, 0.95, 10},
		{ten, 0.9, 9},
		{ten, 0.01, 1},
		{ten, 1, 10},
		{[]float64{7}, 0.95, 7},
		{nil, 0.5, 0},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{nil, 0},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestWindowQuantiles(t *testing.T) {
	// 100 samples of 1 with one stall of 1000: the stall lands in one
	// window's maximum and nowhere else.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[37] = 1000
	got := windowQuantiles(xs, 10, 1)
	if want := []float64{1, 1, 1, 1000, 1, 1, 1, 1, 1, 1}; !slices.Equal(got, want) {
		t.Errorf("one stall: window maxima %v, want %v", got, want)
	}
	if q := quietWindow(got, false); q != 1 {
		t.Errorf("one stall moved the quiet window: %g", q)
	}
	// A tail present in every window moves every window: every 10th
	// sample slow puts the p95 of each 10-sample window on it.
	for i := range xs {
		xs[i] = 1
		if i%10 == 9 {
			xs[i] = 50
		}
	}
	if q := quietWindow(windowQuantiles(xs, 10, 0.95), false); q != 50 {
		t.Errorf("uniform tail not seen: %g", q)
	}
	// Uneven split: 7 samples in 3 windows are cut 3+2+2.
	if got, want := windowQuantiles([]float64{1, 2, 3, 10, 20, 100, 200}, 3, 1), []float64{3, 20, 200}; !slices.Equal(got, want) {
		t.Errorf("uneven windows: maxima %v, want %v", got, want)
	}
	if got := windowQuantiles(nil, 10, 0.95); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
	if got, want := windowQuantiles([]float64{4, 2}, 10, 0.95), []float64{4, 2}; !slices.Equal(got, want) {
		t.Errorf("fewer samples than windows: %v, want %v", got, want)
	}
}

func TestQuietWindow(t *testing.T) {
	// Ten window rates, seven of them spoiled by interference: the
	// third best is still a clean one. An eighth gives way.
	rates := []float64{100, 60, 55, 101, 70, 65, 99, 50, 62, 58}
	if got := quietWindow(rates, true); got != 99 {
		t.Errorf("seven spoiled windows: %g, want 99", got)
	}
	rates[0] = 61
	if got := quietWindow(rates, true); got != 70 {
		t.Errorf("eight spoiled windows: %g, want 70", got)
	}
	// Lower is better: the third lowest.
	if got := quietWindow([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}, false); got != 3 {
		t.Errorf("latencies: %g, want 3", got)
	}
	// A change that moves every window moves the value with them.
	slower := []float64{90, 54, 49.5, 90.9, 63, 58.5, 89.1, 45, 55.8, 52.2}
	if got := quietWindow(slower, true); got != 89.1 {
		t.Errorf("every window 10 %% slower: %g, want 89.1", got)
	}
	// Fewer than four windows: the best.
	if got := quietWindow([]float64{3, 5, 4}, true); got != 5 {
		t.Errorf("three windows: %g", got)
	}
	if got := quietWindow(nil, true); got != 0 {
		t.Errorf("no window: %g", got)
	}
}

func TestCalibrationVerdict(t *testing.T) {
	a := []float64{100, 102, 98, 101, 99}
	for _, tc := range []struct {
		name  string
		b     []float64
		bound float64
		ok    bool
	}{
		{"same code, quiet", []float64{101, 101, 99, 100, 100}, 0.1, true},
		{"medians 6 % apart at a 10 % bound", []float64{106, 108, 104, 107, 105}, 0.1, false},
		{"one set spreads past the bound", []float64{100, 125, 80, 101, 99}, 0.1, false},
		{"a wider bound admits the spread", []float64{100, 125, 80, 101, 99}, 0.5, true},
		{"but not medians 6 % apart: they answer to the 10 % cap", []float64{106, 108, 104, 107, 105}, 0.25, false},
	} {
		if _, ok := measureNoise(a, tc.b).verdict(tc.bound); ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v (%+v)", tc.name, ok, tc.ok, measureNoise(a, tc.b))
		}
	}
	// Same-seed noise pairs run i of A with run i of B.
	if n := measureNoise([]float64{100, 200}, []float64{102, 198}); math.Abs(n.paired-(2.0/101+2.0/199)/2) > 1e-12 {
		t.Errorf("paired noise: %g", n.paired)
	}
}

func TestSameEnvironment(t *testing.T) {
	a := environment{GOMAXPROCS: 2, NProc: 2, GoVersion: "go1.24.0"}
	b := a
	if err := sameEnvironment(a, b); err != nil {
		t.Errorf("equal environments: %v", err)
	}
	b.GOMAXPROCS = 4
	if err := sameEnvironment(a, b); err == nil {
		t.Error("runs at GOMAXPROCS 2 and 4 were allowed to compare")
	}
}

func TestIQRShare(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if got, want := iqrShare([]float64{16, 1, 8, 2, 4}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(powers) = %g, want %g", got, want)
	}
	if got := iqrShare([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("constant input: %g", got)
	}
}

func TestIQRShareSmall(t *testing.T) {
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the cut
	// points extrapolate past the data, as Python's do.
	if got, want := iqrShare([]float64{1, 2}), (2.25-0.75)/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1,2) = %g, want %g", got, want)
	}
}
