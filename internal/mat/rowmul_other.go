//go:build !amd64

package mat

// The assembly bodies are never reached: useAVX2 stays false off amd64.

func rowMulAVX2(dst, a, b *float64, kk, n, stride int) {
	panic("mat: no assembly row kernel on this platform")
}

func rowMul2AVX2(dst0, dst1, a0, a1, b *float64, kk, n, stride int) {
	panic("mat: no assembly row kernel on this platform")
}

func screenEdgesAVX2(ai, wi, qi float64, a, w, q *float64, n int) int {
	panic("mat: no assembly edge screen on this platform")
}

func maskRowAVX2(f, t, x, y *float64, n int, nft, ntt, ft, tt, e float64) (fMax, tMax float64) {
	panic("mat: no assembly mask epilogue on this platform")
}
