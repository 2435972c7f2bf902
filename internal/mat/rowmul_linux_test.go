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
	if !rowMulAsm {
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
