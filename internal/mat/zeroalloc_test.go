package mat

import (
	"math/rand"
	"testing"
)

// TestSerialKernelsZeroAlloc pins the serial fast path of every hot
// kernel at 0 allocs/op. The kernels branch on par.Default().Parallel
// *before* materialising their tile closures, so below the flops cutoffs
// no closure (and no captured-variable box) ever escapes to the heap —
// the property the commit loop's per-step allocation budget depends on.
// These matrices sit far below every cutoff, so the serial path is what
// runs regardless of GOMAXPROCS.
func TestSerialKernelsZeroAlloc(t *testing.T) {
	const n = 43 // two 16-column blocks, two 4-column groups, a 3-column tail
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(n, n)
	b := NewMatrix(n, n)
	diag := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
		b.Data[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		diag.Set(i, i, rng.Float64())
	}
	bt := b.Transpose()
	csr := CSRFromDense(b)
	dst := NewMatrix(n, n)
	x := make(Vector, n)
	y := make(Vector, n)
	y2 := make(Vector, n)
	for i := range x {
		x[i] = rng.Float64()
	}

	cases := []struct {
		name string
		op   func()
	}{
		{"MulInto", func() { MulInto(dst, a, b) }},
		{"MulABtInto", func() { MulABtInto(dst, a, bt) }},
		{"MulBandInto", func() { MulBandInto(dst, a, b, n-1, n-1) }},
		{"MulBandInto/diagonal", func() { MulBandInto(dst, a, diag, n-1, 0) }},
		{"MulRowsInto", func() { MulRowsInto(dst, a, b) }},
		{"RowMulInto", func() { RowMulInto(y, x, b, n-1) }},
		{"RowMulInto/banded", func() { RowMulInto(y, x, b, 3) }},
		{"RowMul2Into", func() { RowMul2Into(y, y2, x, a.Row(1), b, n-1) }},
		{"RowMul2Into/banded", func() { RowMul2Into(y, y2, x, a.Row(1), b, 3) }},
		{"CSR.MulMatInto", func() { csr.MulMatInto(dst, b, n-1) }},
	}
	for _, tc := range cases {
		tc.op() // warm up (one-time lazy state, if any)
		if allocs := testing.AllocsPerRun(100, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the serial path, want 0", tc.name, allocs)
		}
	}
}
