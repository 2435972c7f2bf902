package mat

import (
	"fmt"
	"math"
)

// SymEigen computes the full eigendecomposition of a symmetric matrix using
// the cyclic Jacobi method. It returns the eigenvalues (unsorted storage is
// sorted ascending before return) and a matrix whose columns are the
// corresponding orthonormal eigenvectors.
//
// The PriSTE quadratic forms are rank-one products ã·w̃ᵀ whose symmetric
// parts have at most two non-zero eigenvalues; SymEigen is used by the QP
// package to classify definiteness and by tests to validate the closed-form
// rank-one eigenpair used on the hot path.
func SymEigen(a *Matrix) (Vector, *Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("mat: SymEigen needs square matrix, got %d×%d", a.Rows, a.Cols)
	}
	const symTol = 1e-9
	scale := a.MaxAbs()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > symTol*math.Max(1, scale) {
				return nil, nil, fmt.Errorf("mat: SymEigen matrix not symmetric at (%d,%d): %g vs %g",
					i, j, a.At(i, j), a.At(j, i))
			}
		}
	}
	w := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(w.At(i, j) * w.At(i, j))
			}
		}
		if off <= 1e-28*math.Max(1, scale*scale) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(float64(theta*theta)+1))
				} else {
					t = -1 / (-theta + math.Sqrt(float64(theta*theta)+1))
				}
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				jacobiRotate(w, v, p, q, c, s)
			}
		}
	}
	vals := NewVector(n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	sortEigen(vals, v)
	return vals, v, nil
}

// jacobiRotate applies the rotation J(p,q,c,s) as w ← JᵀwJ and accumulates
// v ← vJ.
func jacobiRotate(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows
	for k := 0; k < n; k++ {
		wkp, wkq := w.At(k, p), w.At(k, q)
		w.Set(k, p, float64(c*wkp)-float64(s*wkq))
		w.Set(k, q, float64(s*wkp)+float64(c*wkq))
	}
	for k := 0; k < n; k++ {
		wpk, wqk := w.At(p, k), w.At(q, k)
		w.Set(p, k, float64(c*wpk)-float64(s*wqk))
		w.Set(q, k, float64(s*wpk)+float64(c*wqk))
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, float64(c*vkp)-float64(s*vkq))
		v.Set(k, q, float64(s*vkp)+float64(c*vkq))
	}
}

func sortEigen(vals Vector, vecs *Matrix) {
	n := len(vals)
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < n; j++ {
			if vals[j] < vals[min] {
				min = j
			}
		}
		if min != i {
			vals[i], vals[min] = vals[min], vals[i]
			for k := 0; k < n; k++ {
				a, b := vecs.At(k, i), vecs.At(k, min)
				vecs.Set(k, i, b)
				vecs.Set(k, min, a)
			}
		}
	}
}

// RankOneSymEigen returns the two (possibly) non-zero eigenvalues of the
// symmetric part (a·wᵀ + w·aᵀ)/2 of a rank-one product. Eigenvalues are
// (a·w ± |a||w|)/2; all remaining eigenvalues are zero. This closed form is
// what the QP solver uses to classify the PriSTE quadratic without an O(n³)
// eigendecomposition.
func RankOneSymEigen(a, w Vector) (lo, hi float64) {
	if len(a) != len(w) {
		panic(fmt.Sprintf("mat: RankOneSymEigen length mismatch %d vs %d", len(a), len(w)))
	}
	dot := a.Dot(w)
	na := math.Sqrt(a.Dot(a))
	nw := math.Sqrt(w.Dot(w))
	lo = (dot - float64(na*nw)) / 2
	hi = (dot + float64(na*nw)) / 2
	return lo, hi
}
