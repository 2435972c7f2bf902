//go:build !amd64

package mat

// The assembly bodies are never reached: rowMulAsm stays false off amd64.

func rowMulAVX2(dst, a, b *float64, kk, n, stride int) {
	panic("mat: no assembly row kernel on this platform")
}

func rowMul2AVX2(dst0, dst1, a0, a1, b *float64, kk, n, stride int) {
	panic("mat: no assembly row kernel on this platform")
}
