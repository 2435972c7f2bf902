package mat

import (
	"fmt"
	"math/rand/v2"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float64s that end exactly where a PROT_NONE page
// begins, so touching anything past the last element faults.
func guarded(t *testing.T, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (8*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-8*n])), n)
}

// TestRowMulStaysInBounds runs both assembly forms with every operand
// ending at an unmapped page — b's last row cut at the column window
// when stride > n — so a masked tail, a 4-column group or a block that
// read or wrote one element too far would fault the test binary.
func TestRowMulStaysInBounds(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: assembly body not exercised")
	}
	rng := rand.New(rand.NewPCG(25, 26))
	for n := 1; n <= 37; n++ {
		for _, kk := range []int{1, 2, 5} {
			for _, stride := range []int{n, n + 3} {
				b := guarded(t, (kk-1)*stride+n)
				a0, a1 := guarded(t, kk), guarded(t, kk)
				dst0, dst1 := guarded(t, n), guarded(t, n)
				for i := range b {
					b[i] = rng.Float64()
				}
				for k := range a0 {
					a0[k], a1[k] = rng.Float64(), rng.Float64()
				}
				want0, want1 := make([]float64, n), make([]float64, n)
				rowMulGo(want0, a0, b, stride)
				rowMulGo(want1, a1, b, stride)
				label := fmt.Sprintf("n=%d k=%d stride=%d", n, kk, stride)
				rowMul(dst0, a0, b, stride)
				sameBitsRow(t, label+" rowMul", dst0, want0)
				clear(dst0)
				rowMul2(dst0, dst1, a0, a1, b, stride)
				sameBitsRow(t, label+" rowMul2 row 0", dst0, want0)
				sameBitsRow(t, label+" rowMul2 row 1", dst1, want1)
			}
		}
	}
}

// TestKronMulStaysInBounds runs KronMulInto with dst, tmp, op and both
// factors each ending at an unmapped page. Pass 2 reads tmp with stride
// w·n and writes dst rows of w·n, so a tile that ran past the last row
// of either would fault the test binary.
func TestKronMulStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 30))
	for _, hw := range [][2]int{{1, 3}, {3, 1}, {2, 5}, {5, 2}, {3, 3}, {4, 7}} {
		h, w := hw[0], hw[1]
		m := h * w
		guardedMatrix := func(rows, cols int) *Matrix {
			g := &Matrix{Rows: rows, Cols: cols, Data: guarded(t, rows*cols)}
			for i := range g.Data {
				g.Data[i] = rng.Float64()
			}
			return g
		}
		a, b, op := guardedMatrix(h, h), guardedMatrix(w, w), guardedMatrix(m, m)
		dst, tmp := guardedMatrix(m, m), guardedMatrix(m, m)
		KronMulInto(dst, tmp, a, b, op)
		sameBitsRow(t, fmt.Sprintf("h=%d w=%d", h, w), dst.Data, kronRef(a, b, op).Data)
	}
}

// TestScreenEdgesStaysInBounds runs the edge screen's assembly with a, w
// and q each ending at an unmapped page, on tails where no pair passes
// (so the screen reads to the end, the masked tail included) and where
// only the last one does.
func TestScreenEdgesStaysInBounds(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: assembly body not exercised")
	}
	const ai, wi, qi = 0.25, 0.75, -0.125
	for n := 1; n <= 37; n++ {
		a, w, q := guarded(t, n), guarded(t, n), guarded(t, n)
		for k := range a {
			a[k], w[k], q[k] = ai, float64(k), float64(k) // A = 0: no pair passes
		}
		if got := ScreenEdges(ai, wi, qi, a, w, q); got != n {
			t.Fatalf("n=%d: flat tail screened to %d", n, got)
		}
		a[n-1], w[n-1], q[n-1] = ai+0.5, wi-1, qi+ai-0.5*wi+0.5
		if got := ScreenEdges(ai, wi, qi, a, w, q); got != n-1 {
			t.Fatalf("n=%d: only the last pair passes, screened to %d", n, got)
		}
	}
}

// TestMaskRowStaysInBounds runs the mask epilogue with f, t, x and y each
// ending at an unmapped page and holds it to the Go body.
func TestMaskRowStaysInBounds(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: assembly body not exercised")
	}
	rng := rand.New(rand.NewPCG(39, 40))
	for n := 1; n <= 37; n++ {
		f, tr, x, y := guarded(t, n), guarded(t, n), guarded(t, n), guarded(t, n)
		for i := range x {
			x[i], y[i] = rng.Float64(), rng.Float64()
		}
		wantF, wantT := make([]float64, n), make([]float64, n)
		wantFMax, wantTMax := maskRowGo(wantF, wantT, x, y, 0.5, 0.25, 0.75)
		fMax, tMax := MaskRow(f, tr, x, y, 0.5, 0.25, 0.75)
		label := fmt.Sprintf("n=%d", n)
		sameBitsRow(t, label+" f", f, wantF)
		sameBitsRow(t, label+" t", tr, wantT)
		if fMax != wantFMax || tMax != wantTMax {
			t.Fatalf("%s: maxima (%v, %v), want (%v, %v)", label, fMax, tMax, wantFMax, wantTMax)
		}
	}
}
