package mat

import "math"

// The mask epilogue.
//
// A commit inside the event window folds the step masks and the released
// emission column into the quantifier's two forward blocks: with X and
// Y the blocks after the transition product, row j of each new block is
//
//	F[j] = (X[j]·(1−ft) + Y[j]·(1−tt))·e,  T[j] = (X[j]·ft + Y[j]·tt)·e,
//
// where ft, tt and e are row j's masks and emission. MaskRow is that
// pass for one row, and it also returns the largest absolute entry
// written to each block, for the renormalisation check. It has two
// bodies — maskRowGo below and, on amd64 with AVX2, the assembly in
// mask_amd64.s, four entries a step with the last n mod 4 left to the Go
// body — chosen by the row primitive's CPU switch. Both take the same
// rounded operations in the same order, so every entry is the same bit
// pattern (NaN payloads aside), and both maxima skip NaN entries, so
// they are equal too.

// MaskRow stores F[j] in f and T[j] in t from x = X[j] and y = Y[j], as
// above, and returns max|F[j]| and max|T[j]| over the entries that are
// not NaN (0 when there are none). x, y and t must be at least as long
// as f.
func MaskRow(f, t, x, y []float64, ft, tt, e float64) (fMax, tMax float64) {
	n := len(f)
	t, x, y = t[:n], x[:n], y[:n]
	k := 0
	if useAVX2 && n >= 4 {
		k = n &^ 3
		fMax, tMax = maskRowAVX2(&f[0], &t[0], &x[0], &y[0], k, 1-ft, 1-tt, ft, tt, e)
		if k == n {
			return fMax, tMax
		}
	}
	fm, tm := maskRowGo(f[k:], t[k:], x[k:], y[k:], ft, tt, e)
	return max(fMax, fm), max(tMax, tm)
}

// maskRowGo is the portable body of MaskRow.
func maskRowGo(f, t, x, y []float64, ft, tt, e float64) (fMax, tMax float64) {
	t, x, y = t[:len(f)], x[:len(f)], y[:len(f)]
	nft, ntt := 1-ft, 1-tt
	for i, xi := range x {
		fi := (float64(xi*nft) + float64(y[i]*ntt)) * e
		ti := (float64(xi*ft) + float64(y[i]*tt)) * e
		f[i], t[i] = fi, ti
		if fi = math.Abs(fi); fi > fMax {
			fMax = fi
		}
		if ti = math.Abs(ti); ti > tMax {
			tMax = ti
		}
	}
	return fMax, tMax
}
