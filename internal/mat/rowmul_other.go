//go:build !amd64

package mat

// rowMulAVX2 is never reached: rowMulAsm stays false off amd64.
func rowMulAVX2(dst, a, b *float64, kk, blocks, stride int) {
	panic("mat: no assembly row kernel on this platform")
}
